// Package runner fans independent simulation cells out across a
// bounded pool of worker goroutines.
//
// The paper's experiment grids are embarrassingly parallel: every
// (machine, configuration, trace) cell is independent of every other
// cell. core.Machine implementations, however, are stateful — one
// instance must never run on two goroutines at once — so the unit of
// work here is a *constructor*: each Task builds a fresh, private
// machine for its own run. Traces are shared read-only across all
// cells; their prepared decode cache initializes through sync.Once, so
// concurrent first use is safe.
//
// Scheduling is dynamic (workers claim the next cell from a shared
// counter) but the output is deterministic: results are stored by cell
// index, so the caller sees the same slice regardless of worker count
// or interleaving.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mfup/internal/core"
	"mfup/internal/events"
	"mfup/internal/fu"
	"mfup/internal/probe"
	"mfup/internal/trace"
)

// Task is one experiment cell: one machine configuration run over a
// set of traces.
type Task struct {
	// New constructs the machine for this cell. It is called exactly
	// once, on the worker goroutine that claims the cell, so the
	// machine it returns is private to that goroutine. The one
	// instance runs all of the cell's traces in order —
	// Machine.RunChecked fully resets state between runs — which keeps
	// the machine's internal allocations amortized as in a serial
	// sweep. A constructor error is raised as a panic, which the cell's
	// recover turns into a CellError. (RunDistinct calls a duplicate
	// task's New on its own goroutine instead, only to read the
	// machine's Name.)
	New func() core.Machine

	// Traces drive the runs. A trace may be shared with any number of
	// other tasks, concurrently.
	Traces []*trace.Trace

	// Probe, when non-nil, is attached to the cell's machine before any
	// trace runs, so it observes every run of the cell in order. A task
	// runs entirely on the one goroutine that claims it, so an
	// unsynchronized accumulator (e.g. *probe.Counters) is safe here as
	// long as it is private to this task.
	Probe probe.Probe

	// Recorder, when non-nil, is attached to the cell's machine before
	// any trace runs, capturing per-instruction lifecycle events
	// (internal/events) for every run of the cell. The same ownership
	// rule as Probe applies: the recorder must be private to this task.
	Recorder *events.Recorder
}

// TaskStat is one task's execution telemetry, filled by
// RunCheckedStats: how long the cell took on the wall clock, how many
// simulated cycles its runs covered, and — when a Recorder was
// attached — how many events it kept and dropped.
type TaskStat struct {
	Wall          time.Duration // wall-clock time over the cell's runs
	Cycles        int64         // simulated cycles summed over the cell's runs
	Events        int64         // events recorded (0 without a Recorder)
	EventsDropped int64         // events dropped at the recorder's cap
	Retries       int64         // re-attempts of transiently failed runs
	Shared        bool          // took another task's run (RunDistinct)

	// Refused is every unit class the cell's machine found busy when
	// it asked for one, over all its runs (core.UnitsRefused); every
	// class for a machine without a functional-unit pool.
	Refused fu.UnitSet
}

// Workers normalizes a parallelism request: n itself when positive,
// otherwise GOMAXPROCS (the "use all cores" default).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Each calls fn(i) for every i in [0, n), with at most
// Workers(parallel) calls in flight. The assignment of indices to
// goroutines is nondeterministic; callers obtain deterministic output
// by having fn(i) write only to slot i of a preallocated result slice.
// With one worker, fn runs on the calling goroutine in index order.
// Each returns once every call has completed.
func Each(parallel, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := Workers(parallel)
	if w > n {
		w = n
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// ErrSkipped marks a cell that never ran because the sweep was
// cancelled first (fail-fast after another cell's failure, or the
// caller's context ending).
var ErrSkipped = errors.New("cell skipped: sweep cancelled")

// CellError is one cell's failure: which task and trace, the machine
// and trace names when known, the underlying error, and — when the
// cell panicked — the goroutine stack at the point of the panic.
type CellError struct {
	Task      int    // index into the tasks slice
	Trace     int    // index into that task's Traces; -1 for construction failures
	Machine   string // machine name, "" if construction never succeeded
	TraceName string // trace name, "" for construction failures
	Err       error  // the failure; a recovered panic is wrapped
	Stack     []byte // goroutine stack if the cell panicked, else nil
	Attempts  int    // runs of this cell including retries; 0 reads as 1
}

// Error renders a one-line diagnostic naming the cell.
func (e *CellError) Error() string {
	suffix := ""
	if e.Attempts > 1 {
		suffix = fmt.Sprintf(" (after %d attempts)", e.Attempts)
	}
	switch {
	case e.Task < 0:
		// Not a cell at all: the sweep's Options were invalid.
		return e.Err.Error()
	case e.Trace < 0 && e.Machine == "":
		return fmt.Sprintf("task %d: constructing machine: %v%s", e.Task, e.Err, suffix)
	case e.TraceName != "":
		return fmt.Sprintf("task %d (%s) on %q: %v%s", e.Task, e.Machine, e.TraceName, e.Err, suffix)
	}
	return fmt.Sprintf("task %d (%s): %v%s", e.Task, e.Machine, e.Err, suffix)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *CellError) Unwrap() error { return e.Err }

// Options configures a checked sweep. The zero value runs on all
// cores with no limits, collecting every failure (keep-going).
type Options struct {
	// Parallel is the worker count; <= 0 means all cores.
	Parallel int

	// Limits bounds every cell's simulation (cycle budget, stall
	// watchdog, wall-clock deadline). Zero = unbounded.
	Limits core.Limits

	// FailFast cancels the sweep after the first cell failure:
	// in-flight cells finish, unstarted cells are skipped and reported
	// with ErrSkipped. The default (keep-going) runs every cell and
	// collects all failures.
	FailFast bool

	// CellTimeout, when positive, gives each cell its own wall-clock
	// deadline (tighter of this and Limits.Deadline). With retries, the
	// window is re-anchored per attempt: a timed-out attempt does not
	// eat the next one's budget.
	CellTimeout time.Duration

	// Retries is how many times a transiently failed run (see
	// Transient) is re-attempted before its failure is reported. 0
	// disables retrying; permanent failures are never retried.
	Retries int

	// RetryBackoff is the base delay before the first retry; each
	// further retry doubles it (capped at 30s), jittered
	// deterministically into [d/2, d) from RetrySeed and the cell
	// coordinates. <= 0 means DefaultRetryBackoff.
	RetryBackoff time.Duration

	// RetrySeed feeds the deterministic jitter. Sweeps that must
	// reproduce exactly (the tables' contract) pass a fixed seed.
	RetrySeed int64

	// Sleep, when non-nil, replaces the real inter-attempt wait. Tests
	// inject a fake clock here so retry schedules are asserted without
	// real sleeps.
	Sleep func(time.Duration)
}

// Safe runs fn, converting a panic into an error (with the panic
// value's message); a panic with an error value is returned as that
// error. It exists for one-off cells outside the Task grid — e.g.
// table builders that call machines directly.
func Safe(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok {
				err = e
			} else {
				err = fmt.Errorf("panic: %v", r)
			}
		}
	}()
	fn()
	return nil
}

// RunCheckedStats executes every task on Workers(opts.Parallel)
// goroutines and returns the results in task order: out[i][j] is
// tasks[i] run on its j-th trace, regardless of how the cells were
// scheduled. Failures are isolated: a cell that returns a simulation
// error or panics produces a CellError and a zero Result in its slot,
// while every other cell completes normally (unless opts.FailFast
// cancels them). Cancelling ctx stops the sweep the same way. Errors
// are reported sorted by (Task, Trace), deterministically at any
// worker count. len(out) == len(tasks) and len(out[i]) ==
// len(tasks[i].Traces) always hold.
//
// The second return value, indexed like tasks, reports each cell's
// wall-clock time, simulated cycle total, and recorder event counts.
// The telemetry is observational: it never changes results or errors.
//
// Structurally invalid Options (opts.Validate) run nothing: the
// single reported CellError carries coordinates (-1, -1) and unwraps
// to the *OptionError, and every result slot stays zero.
func RunCheckedStats(ctx context.Context, opts Options, tasks []Task) ([][]core.Result, []TaskStat, []*CellError) {
	out := make([][]core.Result, len(tasks))
	stats := make([]TaskStat, len(tasks))
	errsByTask := make([][]*CellError, len(tasks))

	if err := opts.Validate(); err != nil {
		for i := range tasks {
			out[i] = make([]core.Result, len(tasks[i].Traces))
		}
		return out, stats, []*CellError{optionsError(err)}
	}

	runCtx := ctx
	var cancel context.CancelCauseFunc
	if opts.FailFast {
		runCtx, cancel = context.WithCancelCause(ctx)
		defer cancel(nil)
	}

	Each(opts.Parallel, len(tasks), func(i int) {
		task := tasks[i]
		rs := make([]core.Result, len(task.Traces))
		out[i] = rs

		fail := func(j int, machine, traceName string, err error, stack []byte, attempts int) {
			errsByTask[i] = append(errsByTask[i], &CellError{
				Task: i, Trace: j, Machine: machine, TraceName: traceName,
				Err: err, Stack: stack, Attempts: attempts,
			})
			if cancel != nil {
				cancel(err)
			}
		}

		if runCtx.Err() != nil {
			for j := range task.Traces {
				fail(j, "", task.Traces[j].Name, ErrSkipped, nil, 0)
			}
			return
		}

		var m core.Machine
		if err := safeCall(func() { m = task.New() }); err != nil {
			fail(-1, "", "", err, stackOf(err), 0)
			return
		}
		if task.Probe != nil {
			m.SetProbe(task.Probe)
		}
		if task.Recorder != nil {
			m.SetRecorder(task.Recorder)
		}

		start := time.Now()
		for j, t := range task.Traces {
			if runCtx.Err() != nil {
				fail(j, m.Name(), t.Name, ErrSkipped, nil, 0)
				continue
			}
			// Run the trace, retrying transient failures up to
			// opts.Retries times with exponentially backed-off,
			// deterministically jittered delays. Each attempt gets a
			// fresh CellTimeout window — the attempt is what is bounded,
			// not the cell's lifetime across retries.
			var (
				r       core.Result
				lastErr error
				stack   []byte
				attempt int
			)
			for attempt = 1; ; attempt++ {
				lim := opts.Limits
				if opts.CellTimeout > 0 {
					d := time.Now().Add(opts.CellTimeout)
					if lim.Deadline.IsZero() || d.Before(lim.Deadline) {
						lim.Deadline = d
					}
				}
				var runErr error
				if err := safeCall(func() { r, runErr = m.RunChecked(t, lim) }); err != nil {
					lastErr, stack = err, stackOf(err)
				} else {
					lastErr, stack = runErr, nil
				}
				if lastErr == nil || attempt > opts.Retries ||
					!Transient(lastErr) || runCtx.Err() != nil {
					break
				}
				stats[i].Retries++
				opts.sleep(runCtx, backoffDelay(opts.RetryBackoff, opts.RetrySeed, i, j, attempt))
				if runCtx.Err() != nil {
					break
				}
			}
			if lastErr != nil {
				fail(j, m.Name(), t.Name, lastErr, stack, attempt)
				continue
			}
			rs[j] = r
			stats[i].Cycles += r.Cycles
		}
		stats[i].Wall = time.Since(start)
		stats[i].Refused = fu.AllUnits
		if units, ok := core.UnitsRefused(m); ok {
			stats[i].Refused = units
		}
		if task.Recorder != nil {
			stats[i].Events = task.Recorder.Events()
			stats[i].EventsDropped = task.Recorder.Dropped()
		}
	})

	var errs []*CellError
	for _, es := range errsByTask {
		errs = append(errs, es...)
	}
	sort.Slice(errs, func(a, b int) bool {
		if errs[a].Task != errs[b].Task {
			return errs[a].Task < errs[b].Task
		}
		return errs[a].Trace < errs[b].Trace
	})
	return out, stats, errs
}

// panicError carries a recovered panic value together with the stack
// captured at the recovery point.
type panicError struct {
	value any
	stack []byte
}

func (e *panicError) Error() string { return fmt.Sprintf("panic: %v", e.value) }

// Unwrap exposes a panic with an error value (e.g. a Task.New that
// panics with its constructor's error) to errors.Is/As.
func (e *panicError) Unwrap() error {
	if err, ok := e.value.(error); ok {
		return err
	}
	return nil
}

// safeCall runs fn, converting a panic into a *panicError.
func safeCall(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &panicError{value: r, stack: debug.Stack()}
		}
	}()
	fn()
	return nil
}

// stackOf extracts the captured stack from a recovered-panic error.
func stackOf(err error) []byte {
	var pe *panicError
	if errors.As(err, &pe) {
		return pe.stack
	}
	return nil
}
