package core

import (
	"time"

	"mfup/internal/faultinject"
	"mfup/internal/simerr"
	"mfup/internal/trace"
)

// SimError is the structured error every checked run reports; see
// internal/simerr for the full taxonomy.
type SimError = simerr.SimError

// Limits bounds a simulation run (Machine.RunChecked). The zero value
// checks nothing: the run ends only when the trace does, or on an
// unsimulatable trace.
//
// (Not to be confused with internal/limits, the paper's §4
// performance bounds — these are execution guards, not performance
// models.)
type Limits struct {
	// MaxCycles aborts the run once the simulated clock passes it.
	// 0 disables the budget.
	MaxCycles int64

	// StallCycles is the no-forward-progress watchdog: a cycle-stepped
	// machine that issues, dispatches, completes, and commits nothing
	// for this many consecutive cycles is declared livelocked. 0
	// disables the watchdog. Machines whose issue times are computed
	// directly (the single-issue models) cannot stall and ignore it.
	StallCycles int64

	// Deadline is a wall-clock bound, polled every few thousand
	// simulated events. The zero time disables it.
	Deadline time.Time
}

// DefaultStallCycles is the recommended watchdog window: far beyond
// any legitimate event gap (the largest gap a healthy run can see is
// one functional-unit latency), yet cheap to reach when a model bug
// or pathological configuration livelocks a machine.
const DefaultStallCycles = 1 << 20

// DefaultLimits returns the production defaults: no cycle budget, no
// deadline, the stall watchdog armed at DefaultStallCycles.
func DefaultLimits() Limits {
	return Limits{StallCycles: DefaultStallCycles}
}

// newGuard builds the limit enforcer for one run and, when fault
// injection is active, installs the run's injected-fault schedule.
// With injection off (the production default) the extra cost is one
// atomic pointer load per run.
func newGuard(machine, traceName string, lim Limits) simerr.Guard {
	g := simerr.NewGuard(machine, traceName, lim.MaxCycles, lim.StallCycles, lim.Deadline)
	if in := faultinject.Active(); in != nil {
		if panicAt, stallAt, errAt, transient, armed := in.SimFault(machine, traceName); armed {
			g.Inject(simerr.InjectedFault{
				PanicAt: panicAt, StallAt: stallAt, ErrAt: errAt, Transient: transient,
			})
		}
	}
	return g
}

// badTrace reports a BadTrace error when the trace failed decode
// validation — corrupted streams must be rejected before a timing
// model indexes out of its dense arrays. O(1) per run: validation
// happened once, in Prepare.
func badTrace(machine string, p *trace.Prepared) error {
	if p.Err == nil {
		return nil
	}
	return &simerr.SimError{
		Kind: simerr.KindBadTrace, Machine: machine, Trace: p.Trace.Name,
		Instr: int64(p.ErrIndex), Msg: p.Err.Error(),
	}
}

// scalarOnly reports a BadTrace error when the trace failed decode
// validation or when a scalar-only machine receives a vector trace;
// mixing the models would silently produce nonsense timing. The
// prepared trace already knows whether (and where) a vector
// instruction occurs, so the check is O(1) per run.
func scalarOnly(machine string, p *trace.Prepared) error {
	if err := badTrace(machine, p); err != nil {
		return err
	}
	if i := p.FirstVector; i >= 0 {
		return &simerr.SimError{
			Kind: simerr.KindBadTrace, Machine: machine, Trace: p.Trace.Name,
			Instr: int64(i),
			Msg: "scalar machine given vector instruction " +
				p.Trace.Ops[i].Code.String(),
		}
	}
	return nil
}
