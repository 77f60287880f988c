package core

import (
	"math"

	"mfup/internal/events"
	"mfup/internal/fu"
	"mfup/internal/probe"
	"mfup/internal/simerr"
	"mfup/internal/trace"
)

// forker is implemented by every machine in this package. A run can
// pause just before it could first read a given op, and a spare
// machine of the same configuration can take a copy of the paused run
// and resume it on another trace that holds the same ops up to that
// op. The copy then runs exactly as a run of that trace from cycle 0
// would have: the state it copies was built from the same ops. The
// extrapolation ladder forks its samples this way (DESIGN §11).
//
// Each machine pauses at the latest point it can name before it could
// read the op: a cycle start for the cycle-stepped machines, a buffer
// fetch for the multiple-issue ones, an op boundary for the rest. None
// resumes mid-cycle.
type forker interface {
	Machine

	// spare builds an idle machine of the same configuration, to fork
	// runs into.
	spare() forker

	// begin starts a run of t under lim, observed by the attached probe,
	// without simulating anything.
	begin(t *trace.Trace, lim Limits) error

	// advance simulates the begun run until it could next read op at,
	// and reports done, with the run's result, when the trace ends
	// first. at = noPause runs to the end.
	advance(at int) (r Result, done bool, err error)

	// fork makes the machine a copy of src's paused run, src a machine
	// of the same configuration, resumed on t and observed by p. t must
	// hold src's ops up to where src paused. src may be the machine
	// itself: its paused run then moves on to t.
	fork(src forker, t *trace.Trace, p probe.Probe)

	// state is the run's loop state: where a paused run stands.
	state() *run

	// units is the machine's functional-unit pool, nil without one.
	units() *fu.Pool

	// machineConfig is the configuration the machine was built from.
	machineConfig() Config
}

// runChecked is every machine's RunChecked: begin the run, then
// advance it to its end.
func runChecked(m forker, t *trace.Trace, lim Limits) (Result, error) {
	if err := m.begin(t, lim); err != nil {
		return Result{}, err
	}
	r, _, err := m.advance(noPause)
	return r, err
}

// spareOf finishes a spare: the constructor call that rebuilds a
// machine from the configuration it was first built from cannot fail.
func spareOf(m Machine, err error) forker {
	if err != nil {
		panic("core: rebuilding a machine from its own configuration: " + err.Error())
	}
	return m.(forker)
}

// noPause is the op index a run never reaches: advance(noPause) runs
// to the end.
const noPause = math.MaxInt

// run is the loop state of a machine's run between two steps: what the
// run loop keeps in locals, saved when the run pauses so that a copy
// can resume it. The machines' components (pools, scoreboards, buses,
// banks, buffers) hold the rest.
type run struct {
	t *trace.Trace
	p *trace.Prepared
	g simerr.Guard

	// acct is a probed run's issue accountant. Every probed run gets
	// one; only the machines that compute issue times instead of
	// stepping cycles use it.
	acct probe.Account

	pos  int   // the next op to issue, or the first of the next buffer
	c    int64 // the next cycle, for the cycle-stepped machines
	next int64 // the earliest cycle the next op or buffer may issue; the branch gate of the cycle-stepped machines
	last int64 // the latest event so far: the cycle count once the run ends
}

// retarget points a copied run at t and at the copy's probe p.
func (r *run) retarget(t *trace.Trace, p probe.Probe) {
	r.t, r.p = t, t.Prepared()
	r.acct.Retarget(p)
}

// result is the Result of a run that has ended. The guard carries the
// machine's name.
func (r *run) result() Result {
	return Result{Machine: r.g.Machine, Trace: r.t.Name, Instructions: int64(len(r.t.Ops)), Cycles: r.last}
}

// lifecycle is what every machine keeps besides its components: the
// configuration it was built from, the loop state of its run, and the
// observers attached to it. Each machine embeds one, and with it
// SetProbe, SetRecorder, the brackets of a run (start, finish) and the
// tail of a fork (resume).
type lifecycle struct {
	cfg   Config
	st    run
	probe probe.Probe
	rec   *events.Recorder
}

func (l *lifecycle) SetProbe(p probe.Probe) { l.probe = p }

func (l *lifecycle) SetRecorder(r *events.Recorder) { l.rec = r }

func (l *lifecycle) machineConfig() Config { return l.cfg }

func (l *lifecycle) state() *run { return &l.st }

// start begins a run of t under lim on the machine named name, once
// accept (scalarOnly or badTrace) has passed the prepared trace, which
// it returns for the machine to reset its components by. It opens the
// observers' brackets for a machine that issues up to width ops a
// cycle into window buffer entries, and gives a probed run the issue
// accountant of that width.
func (l *lifecycle) start(name string, t *trace.Trace, lim Limits, accept func(string, *trace.Prepared) error, width, window int) (*trace.Prepared, error) {
	p := t.Prepared()
	if err := accept(name, p); err != nil {
		return nil, err
	}
	l.st = run{t: t, p: p, g: newGuard(name, t.Name, lim)}
	if l.probe != nil {
		l.probe.Begin(name, t.Name, width, window)
		l.st.acct = *probe.NewAccount(l.probe, width)
	}
	if l.rec != nil {
		l.rec.Begin(name, t.Name, width)
	}
	return p, nil
}

// finish ends the run at its last event: it closes the observers'
// brackets and reports the run's result, as advance does at the end of
// the trace.
func (l *lifecycle) finish() (Result, bool, error) {
	if l.probe != nil {
		l.probe.End(l.st.last)
	}
	if l.rec != nil {
		l.rec.End(l.st.last)
	}
	return l.st.result(), true, nil
}

// resume makes the run a copy of src's paused run, moved on to t and
// observed by p: the tail of every fork, once the machine has copied
// src's components.
func (l *lifecycle) resume(src *lifecycle, t *trace.Trace, p probe.Probe) {
	l.st = src.st
	l.st.retarget(t, p)
	l.probe = p
}

// copyResized returns dst holding src's first n entries, zero past
// len(src), reusing dst's storage: the per-address state of a run
// copied onto a trace with n distinct addresses. A trace that holds
// the paused run's ops numbers their addresses alike (Prepare numbers
// them densely in first-occurrence order), and the ids past them are
// ones the run has not touched.
//
// A spare's tables grow once to its source's size, not sample by
// sample.
func copyResized[T any](dst, src []T, n int) []T {
	if cap(dst) < n {
		dst = make([]T, n, max(n, len(src)))
	} else {
		dst = dst[:n]
	}
	clear(dst[copy(dst, src):])
	return dst
}

// copySlab makes dst a copy of src, a slab of in-flight entries, each
// with its own waiter list, reusing dst's entries and their lists.
func copySlab[E any](dst, src []E, waiters func(*E) *[]ref) []E {
	if cap(dst) < len(src) {
		dst = append(dst[:cap(dst)], make([]E, len(src)-cap(dst))...)
	}
	dst = dst[:len(src)]
	for i := range src {
		w := *waiters(&dst[i])
		dst[i] = src[i]
		*waiters(&dst[i]) = append(w[:0], *waiters(&src[i])...)
	}
	return dst
}
