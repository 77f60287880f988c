// Package simerr defines the structured error produced by checked
// simulation runs, and the Guard that enforces run limits.
//
// Every machine model offers a RunChecked entry point that bounds a
// run three ways: a cycle budget (the simulated clock may not pass
// MaxCycles), a no-forward-progress watchdog (a cycle-stepped machine
// that neither issues, dispatches, completes, nor commits anything
// for StallCycles consecutive cycles is livelocked), and a wall-clock
// deadline (polled periodically, for sweeps with per-cell timeouts).
// All three failures surface as a *SimError naming the machine, the
// trace, and the cycle at which the run was cut off, plus — for
// stalls — a snapshot of the stalled in-flight instructions.
//
// The package is a leaf that imports only the standard library. The
// machine models in internal/core raise its errors (core.SimError is
// an alias), and internal/runner classifies them by Kind to decide
// which failed cells to retry.
package simerr

import (
	"fmt"
	"strings"
	"time"
)

// Kind classifies a simulation failure.
type Kind uint8

// The failure classes.
const (
	// KindCycleBudget: the simulated clock passed Limits.MaxCycles.
	KindCycleBudget Kind = iota
	// KindStall: the no-forward-progress watchdog fired — nothing
	// issued, dispatched, completed, or committed for StallCycles
	// consecutive cycles while instructions were still in flight.
	KindStall
	// KindDeadline: the wall-clock deadline passed mid-run.
	KindDeadline
	// KindBadTrace: the machine cannot simulate the trace at all
	// (for example, a vector trace handed to a scalar machine, or a
	// corrupted trace that fails validation).
	KindBadTrace
	// KindInjected: a deliberate failure scheduled by the
	// fault-injection layer (internal/faultinject) fired. Chaos runs
	// use it to exercise the same error paths genuine failures take.
	KindInjected
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindCycleBudget:
		return "cycle budget exceeded"
	case KindStall:
		return "no forward progress"
	case KindDeadline:
		return "deadline exceeded"
	case KindBadTrace:
		return "unsimulatable trace"
	case KindInjected:
		return "injected fault"
	}
	return fmt.Sprintf("simerr.Kind(%d)", uint8(k))
}

// SimError is a structured simulation failure.
type SimError struct {
	Kind    Kind
	Machine string // machine model name
	Trace   string // trace name
	Cycle   int64  // simulated cycle at which the run was cut off
	Instr   int64  // trace position reached, -1 when not meaningful
	Msg     string // optional kind-specific detail

	// Transient marks the failure as retryable: a re-run of the same
	// cell may succeed. Only injected faults set it today (a flaky
	// fault that heals after N attempts); the batch layer's retry
	// classification keys off it.
	Transient bool

	// InFlight is a snapshot of the stalled in-flight instructions
	// (stall errors only), newest-committed first, possibly truncated.
	InFlight []string
}

// Error renders the failure as a single line, the form the CLIs print.
func (e *SimError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: %s on %q: %s at cycle %d", e.Machine, e.Trace, e.Kind, e.Cycle)
	if e.Instr >= 0 {
		fmt.Fprintf(&b, " (instr %d)", e.Instr)
	}
	if e.Msg != "" {
		fmt.Fprintf(&b, ": %s", e.Msg)
	}
	if n := len(e.InFlight); n > 0 {
		fmt.Fprintf(&b, " [%d in flight]", n)
	}
	return b.String()
}

// Detail renders the failure with the in-flight snapshot, one
// instruction per line, for verbose diagnostics.
func (e *SimError) Detail() string {
	if len(e.InFlight) == 0 {
		return e.Error()
	}
	var b strings.Builder
	b.WriteString(e.Error())
	for _, s := range e.InFlight {
		b.WriteString("\n  in flight: ")
		b.WriteString(s)
	}
	return b.String()
}

// pollStride is how many Tick calls pass between wall-clock reads:
// deadline checks must not put a syscall on the simulation hot path.
const pollStride = 4096

// Guard enforces run limits for one simulation run. The zero value
// (all limits zero) checks nothing; construct one per run with
// NewGuard and drive it from the machine's main loop.
type Guard struct {
	Machine string
	Trace   string

	maxCycles   int64
	stallCycles int64
	deadline    time.Time
	timed       bool

	lastProgress int64
	poll         int

	// Fault-injection schedule (see Inject). armed is false outside
	// chaos runs, so the hot-path cost of the hooks is one branch.
	inj   InjectedFault
	ticks int64
	armed bool
}

// InjectedFault is a guard's fault-injection schedule: the Tick
// ordinals (1-based) at which deliberate failures fire. Zero fields
// are disarmed. The schedule is resolved once per run by the
// fault-injection layer and installed with Inject.
type InjectedFault struct {
	// PanicAt panics on that Tick, exercising the runner's per-cell
	// recover path with a genuine mid-run panic.
	PanicAt int64
	// StallAt stops the guard from recording forward progress from
	// that Tick on, so an armed StallCycles watchdog fires exactly as
	// it would for a real livelock. It has no effect on machines that
	// never call Progress/Stalled (their issue times are computed
	// directly; they cannot livelock).
	StallAt int64
	// ErrAt returns a KindInjected *SimError on that Tick.
	ErrAt int64
	// Transient marks the ErrAt failure retryable.
	Transient bool
}

// Inject installs a fault schedule for this run. Call it between
// NewGuard and the first Tick.
func (g *Guard) Inject(f InjectedFault) {
	g.inj = f
	g.armed = f.PanicAt > 0 || f.StallAt > 0 || f.ErrAt > 0
}

// injected advances the tick counter and fires any scheduled fault.
func (g *Guard) injected(cycle, instr int64) *SimError {
	g.ticks++
	if g.inj.PanicAt > 0 && g.ticks >= g.inj.PanicAt {
		panic(fmt.Sprintf("faultinject: injected panic in %s on %q at tick %d (cycle %d)",
			g.Machine, g.Trace, g.ticks, cycle))
	}
	if g.inj.ErrAt > 0 && g.ticks >= g.inj.ErrAt {
		e := g.fail(KindInjected, cycle, instr)
		e.Msg = fmt.Sprintf("scheduled at tick %d", g.inj.ErrAt)
		e.Transient = g.inj.Transient
		return e
	}
	return nil
}

// NewGuard builds a guard for one run of machine over trace. Zero
// maxCycles or stallCycles disable the respective check; a zero
// deadline disables wall-clock polling.
func NewGuard(machine, trace string, maxCycles, stallCycles int64, deadline time.Time) Guard {
	return Guard{
		Machine:     machine,
		Trace:       trace,
		maxCycles:   maxCycles,
		stallCycles: stallCycles,
		deadline:    deadline,
		timed:       !deadline.IsZero(),
		// Poll on the first Tick, then every pollStride: a short run
		// must still notice an already-expired deadline.
		poll: 1,
	}
}

// fail builds a SimError for this run.
func (g *Guard) fail(kind Kind, cycle, instr int64) *SimError {
	return &SimError{Kind: kind, Machine: g.Machine, Trace: g.Trace, Cycle: cycle, Instr: instr}
}

// Over checks the cycle budget against the latest event time (which
// must be nondecreasing across calls for the earliest-abort property).
// Over, Stalled and Tick run on every simulated cycle, so each keeps
// its common no-failure path small enough to inline and leaves the
// rest to an outlined method.
func (g *Guard) Over(cycle, instr int64) *SimError {
	if g.maxCycles > 0 && cycle > g.maxCycles {
		return g.overBudget(cycle, instr)
	}
	return nil
}

func (g *Guard) overBudget(cycle, instr int64) *SimError {
	e := g.fail(KindCycleBudget, cycle, instr)
	e.Msg = fmt.Sprintf("budget %d cycles", g.maxCycles)
	return e
}

// Progress records that the machine did something at cycle c — issued,
// dispatched, completed, or committed an instruction. An injected
// stall suppresses the recording, so the watchdog sees a machine that
// has genuinely stopped moving.
func (g *Guard) Progress(c int64) {
	if g.armed && g.inj.StallAt > 0 && g.ticks >= g.inj.StallAt {
		return
	}
	if c > g.lastProgress {
		g.lastProgress = c
	}
}

// Stalled checks the no-forward-progress watchdog at cycle c.
// snapshot, when non-nil, is called only on failure to capture up to
// max in-flight instructions for the error.
func (g *Guard) Stalled(c, instr int64, snapshot func(max int) []string) *SimError {
	if g.stallCycles <= 0 || c-g.lastProgress <= g.stallCycles {
		return nil
	}
	return g.stalled(c, instr, snapshot)
}

// Jump returns the cycle a cycle-stepped machine moves to after cycle
// c when it knows nothing can happen before cycle next: next itself,
// pulled back to the first cycle at which Over or Stalled would fire
// on the scan clock, so a budget or watchdog error carries the same
// cycle and instruction as stepping through every cycle would. Jump
// never returns less than c+1. An armed fault schedule is counted in
// Tick calls, so while one is armed Jump refuses to skip and returns
// c+1.
func (g *Guard) Jump(c, next int64) int64 {
	if g.armed || next <= c+1 {
		return c + 1
	}
	if g.maxCycles > 0 && next > g.maxCycles+1 {
		next = max(g.maxCycles+1, c+1)
	}
	if g.stallCycles > 0 {
		if fire := g.lastProgress + g.stallCycles + 1; next > fire {
			next = max(fire, c+1)
		}
	}
	return next
}

func (g *Guard) stalled(c, instr int64, snapshot func(max int) []string) *SimError {
	e := g.fail(KindStall, c, instr)
	e.Msg = fmt.Sprintf("nothing issued or completed for %d cycles (last progress at cycle %d)",
		g.stallCycles, g.lastProgress)
	if snapshot != nil {
		e.InFlight = snapshot(16)
	}
	return e
}

// Tick polls the wall-clock deadline. It reads the clock only once
// every pollStride calls, so it is cheap enough for per-cycle or
// per-instruction use. Tick is also the fault-injection clock: every
// machine's main loop calls it, so injected panics, errors, and
// stalls are scheduled in Tick ordinals.
func (g *Guard) Tick(cycle, instr int64) *SimError {
	if !g.armed && !g.timed {
		return nil
	}
	return g.tick(cycle, instr)
}

func (g *Guard) tick(cycle, instr int64) *SimError {
	if g.armed {
		if e := g.injected(cycle, instr); e != nil {
			return e
		}
	}
	if !g.timed {
		return nil
	}
	if g.poll--; g.poll > 0 {
		return nil
	}
	g.poll = pollStride
	if time.Now().After(g.deadline) {
		e := g.fail(KindDeadline, cycle, instr)
		e.Msg = "wall-clock deadline passed"
		return e
	}
	return nil
}
