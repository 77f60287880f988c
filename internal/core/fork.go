package core

import (
	"math"

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

	// acct is a probed run's issue accountant, for the machines that
	// compute issue times instead of stepping cycles.
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
