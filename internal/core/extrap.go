package core

import (
	"fmt"

	"mfup/internal/events"
	"mfup/internal/probe"
	"mfup/internal/simerr"
	"mfup/internal/trace"
)

// Steady-state extrapolation: make per-loop simulation cost O(1) in
// the iteration count.
//
// Every Livermore trace is a short prologue, a long run of congruent
// loop-body windows, and an epilogue (internal/trace.Period). The
// machines are deterministic finite-state systems, so once the
// pipeline reaches steady state every further iteration costs exactly
// the same cycles and the same stall-attribution deltas as the last —
// simulating a billion of them recomputes one number a billion times.
//
// The Extrapolator wrapper exploits that without touching a machine's
// timing model. For a trace with B body windows it takes a ladder of
// runs of reduced traces holding k0, k0+1, ..., k0+S-1 windows (Period
// Slice; each is a full prologue + tail, so end effects are included)
// — each forked from one run of the longest where its reduced trace
// parts from it, so the ladder costs one run plus a tail per sample
// (sampler) — then looks for a lag L such that growing the loop by L
// iterations always adds the same cycle count, the same issued/stall
// slot counts per reason, the same per-unit work, and the same
// occupancy histogram increments. A machine in steady state must show
// such a fixed per-iteration delta; finding one, the engine closes
// the run analytically:
//
//	result(B) = result(kref) + (B-kref)/L * (result(kref+L) - result(kref))
//
// with kref chosen congruent to B modulo L. The reference runs carry
// the simulated epilogue, so cycle counts, issue rates, and stall
// breakdowns are exact — bit-identical to full simulation — whenever
// the steady-state premise holds; the differential matrix test
// asserts exactly that across every machine and kernel.
//
// A triangular nest (trace.Nest: LFK 6, whose inner trip count is the
// outer index) has no such period, but its outer iterations grow by a
// fixed op count, so in steady state each further outer iteration
// costs a fixed amount more than the last. The same ladder, run over
// prefixes of K, K+1, ... outer iterations, confirms a fixed second
// difference instead, and the closure evaluates the quadratic through
// three reference runs L apart at the trace's outer count. A nest is
// closed only at its built length: it is never extended.
//
// When no period or no fixed delta exists (data-dependent control
// flow, too few iterations, bank-hostile strides), the wrapper falls
// back to full simulation, so it is always safe to apply.
const (
	// The reference ladder is adaptive: most machines show a fixed
	// delta at lag 1 or 2, so a short ladder settles them cheaply; the
	// RUU's round-robin issue banks, ring-buffer result bus, and
	// wrap-around entry reuse can compose into much longer steady
	// periods — up to the order of the RUU size (lags of 18 and ~100
	// are observed) — which the extended stages cover when the trace
	// has enough iterations to sample them.
	extrapSamples    = 16
	extrapMaxLag     = 8
	extrapSamplesExt = 48
	extrapMaxLagExt  = 32
	extrapSamplesMax = 224
	extrapMaxLagMax  = 192

	// extrapMinPairs is the smallest number of confirming sample pairs
	// (triples, for a nest) a lag must exhibit before the engine trusts
	// it.
	extrapMinPairs = 8

	// extrapHorizonOps and extrapHorizonWindows size the warmup the
	// smallest reference run holds before its tail window. They only
	// set where sampling starts: no fixed warm-up can outlast every
	// latency (the sweep runs memory latency 20, and Config.Validate
	// allows up to MaxLatency), so exactness rests on the confirming
	// pairs, which must show one fixed delta over the whole ladder.
	extrapHorizonOps     = 256
	extrapHorizonWindows = 16
)

// ExtrapolationStats reports what the engine did on the last run of
// an Extrapolator.
type ExtrapolationStats struct {
	// Engaged is true when the run was closed analytically; false
	// means the wrapper fell back to full simulation.
	Engaged bool

	// Reason explains a fallback ("" when Engaged).
	Reason string

	// Order is the degree of the closure: 1 for a loop, whose runs grow
	// by a fixed delta per iteration (a line), 2 for a triangular nest,
	// whose per-iteration deltas grow by a fixed amount (a quadratic).
	// It is 0 when the run fell back before choosing either.
	Order int

	// Span and Lag are the detected ops-per-iteration and steady-state
	// period in iterations. For a nest, Span is the ops each outer
	// iteration adds over the one before and Lag counts outer
	// iterations.
	Span, Lag int

	// Windows is the total body-window count accounted for, including
	// virtual iterations; Skipped of them were bridged analytically.
	// For a nest both count outer iterations.
	Windows, Skipped int64

	// SimulatedOps counts the ops actually simulated for the reference
	// ladder (the engine's entire per-machine cost): the one run that
	// reaches every sample's divergence point, up to its last pause,
	// plus each sample's tail from where its copy of that run resumed.
	// Samples simulate the ops they share once.
	SimulatedOps int64

	// CyclesPerLag is the fixed cycle delta per Lag iterations; for a
	// nest, the fixed second difference: how many cycles more each Lag
	// outer iterations cost than the Lag before.
	CyclesPerLag int64
}

// extrapWarmup returns the smallest reference-run window count k0 for
// a period of the given span: the full identity horizon must fit
// before the reduced trace's tail window.
func extrapWarmup(span int) int {
	return extrapHorizonWindows + (extrapHorizonOps+span-1)/span + 2
}

// CanExtrapolate reports whether t satisfies the machine-independent
// prerequisites for extending t past its built length: a detectable
// steady-state period, enough iterations for the reference ladder, and
// reduced traces that preserve the tail's address-identity structure.
// A nil return does not guarantee engagement — a machine can still
// fall back (or, with virtual iterations, fail) for machine-dependent
// reasons such as a bank-hostile stride — but callers deciding
// whether a loop length beyond the materializable range is reachable
// should require it. A triangular nest (LFK 6) has no period, so it is
// refused here even though the engine can close it at its built
// length: extending it would change every scaled rate under today's
// keys.
func CanExtrapolate(t *trace.Trace) error {
	prep := t.Prepared()
	if prep.Err != nil {
		return prep.Err
	}
	pd := prep.Period()
	if pd == nil {
		return fmt.Errorf("core: %s: no steady-state period detected", t.Name)
	}
	k0 := extrapWarmup(pd.Span)
	if need := k0 + extrapSamples + 1; pd.Iterations() < need {
		return fmt.Errorf("core: %s: too few iterations (%d, need %d)", t.Name, pd.Iterations(), need)
	}
	if !pd.TailIdentityOK(k0) {
		return fmt.Errorf("core: %s: a reduced trace does not preserve tail address identity", t.Name)
	}
	return nil
}

// Extrapolator wraps a Machine with the steady-state extrapolation
// engine. It is itself a Machine: Name, probes, and recorders pass
// through, results are bit-identical to the wrapped machine's, and
// runs the engine cannot close analytically fall back to a plain
// delegated run. Like the machines it wraps, an Extrapolator is
// reusable but not safe for concurrent use.
type Extrapolator struct {
	inner      Machine
	spare      forker // the machine the ladder forks its samples into, built on first use
	probe      probe.Probe
	rec        *events.Recorder
	extra      map[string]int64 // virtual iterations to add, by trace name
	bestEffort bool
	last       ExtrapolationStats
}

// Extrapolate wraps m with the steady-state extrapolation engine.
func Extrapolate(m Machine) *Extrapolator {
	if e, ok := m.(*Extrapolator); ok {
		return e
	}
	return &Extrapolator{inner: m}
}

// WithVirtual directs the engine to account for extra additional loop
// iterations beyond those materialized in the trace, keyed by trace
// name. Virtual iterations cost nothing to simulate — they are pure
// analytic extension — which is what makes n=1e9 affordable when the
// kernel's memory layout caps the buildable trace far lower. A run
// whose trace has virtual iterations but no detectable steady state
// fails with a structured error: there is nothing to fall back to.
// So does a run whose count is negative, BestEffort or not.
func (e *Extrapolator) WithVirtual(extra map[string]int64) *Extrapolator {
	e.extra = extra
	return e
}

// BestEffort directs the engine to fall back to simulating just the
// materialized trace when virtual iterations cannot be extended
// analytically, instead of failing the run: the result then reflects
// only the materialized iterations (Stats reports the fallback).
// Issue rates are essentially independent of the iteration count in
// steady state, so a clamped run's rate is still representative;
// exact cycle totals are not, which is why the strict default errors.
func (e *Extrapolator) BestEffort() *Extrapolator {
	e.bestEffort = true
	return e
}

// Stats returns what the engine did on the most recent run.
func (e *Extrapolator) Stats() ExtrapolationStats { return e.last }

// Name reports the wrapped machine's name: results must be
// indistinguishable from the machine's own.
func (e *Extrapolator) Name() string { return e.inner.Name() }

// SetProbe attaches p to subsequent runs. During an engaged run the
// wrapped machine drives only the engine's internal reference
// counters; p receives the exact extrapolated totals instead.
func (e *Extrapolator) SetProbe(p probe.Probe) { e.probe = p }

// SetRecorder attaches r to subsequent runs. Lifecycle events exist
// only for simulated instructions, so an attached recorder disables
// extrapolation: every run falls back to full simulation and records
// the complete stream, exactly as on the bare machine.
func (e *Extrapolator) SetRecorder(r *events.Recorder) { e.rec = r }

// RunChecked simulates t under lim, extrapolating the steady-state
// middle of the loop when possible and falling back to a delegated
// full run otherwise.
func (e *Extrapolator) RunChecked(t *trace.Trace, lim Limits) (Result, error) {
	e.last = ExtrapolationStats{}
	extraIters := e.extra[t.Name]
	if extraIters < 0 {
		e.last.Reason = "negative virtual iteration count"
		return Result{}, e.errVirtual(t, extraIters, "the count is negative")
	}
	if r, err, done := e.tryExtrapolate(t, lim, extraIters); done {
		return r, err
	}
	if extraIters > 0 && !e.bestEffort {
		return Result{}, e.errVirtual(t, extraIters, e.last.Reason)
	}
	e.inner.SetProbe(e.probe)
	e.inner.SetRecorder(e.rec)
	defer func() {
		e.inner.SetProbe(nil)
		e.inner.SetRecorder(nil)
	}()
	return e.inner.RunChecked(t, lim)
}

// errVirtual is the permanent failure of a run whose extra virtual
// iterations cannot be accounted for.
func (e *Extrapolator) errVirtual(t *trace.Trace, extra int64, reason string) error {
	return &simerr.SimError{
		Kind: simerr.KindBadTrace, Machine: e.inner.Name(), Trace: t.Name,
		Instr: -1,
		Msg:   fmt.Sprintf("cannot extrapolate %d virtual iterations: %s", extra, reason),
	}
}

// tryExtrapolate attempts the analytic closure. done reports whether
// the run is finished (result or error); false means fall back, with
// the reason recorded in e.last.
func (e *Extrapolator) tryExtrapolate(t *trace.Trace, lim Limits, extraIters int64) (Result, error, bool) {
	fallback := func(reason string) (Result, error, bool) {
		e.last.Reason = reason
		return Result{}, nil, false
	}
	if e.rec != nil {
		return fallback("event recorder attached: every cycle must be simulated")
	}
	var uc *probe.Counters
	if e.probe != nil {
		c, ok := e.probe.(*probe.Counters)
		if !ok {
			return fallback("unsupported probe type")
		}
		uc = c
	}
	prep := t.Prepared()
	if prep.Err != nil {
		return fallback("invalid trace")
	}
	spine, ok := e.inner.(forker)
	if !ok {
		return fallback("machine cannot fork a run")
	}
	l, reason := e.ladderFor(prep, extraIters, spine.machineConfig().MemBanks)
	if reason != "" {
		return fallback(reason)
	}
	target := int64(l.full) + extraIters
	samples, lag, reason := e.climb(spine, l, lim, target)
	if reason != "" {
		return fallback(reason)
	}
	// Close the run at the target size from a reference congruent to it
	// modulo the lag. A total past int64 is an error, never a wrapped
	// count: even a best-effort caller must not record it, as a clamped
	// rate would then stand for the unreachable length.
	overflow := func(what string) (Result, error, bool) {
		return Result{}, e.errVirtual(t, extraIters, what+" overflows int64"), true
	}
	if target < extraIters {
		return overflow("the window count")
	}
	ref := l.congruentRef(len(samples), lag, target)
	if ref < 0 {
		return fallback("no reference run congruent to the target length")
	}
	pts := newLadderPoints(l.order).gather(samples, ref, lag)
	times := (target - int64(l.warmup+ref)) / int64(lag)
	cycles, okC := probe.Newton(times, pts.cycles...)
	instrs, okI := probe.Newton(times, pts.instrs...)
	if !okC || !okI {
		return overflow("the cycle or instruction count")
	}
	if extraIters == 0 && instrs != int64(len(t.Ops)) {
		return fallback("extrapolated instruction count disagrees with the trace")
	}
	// The skipped iterations still count against the cycle budget: a
	// full run past lim.MaxCycles must fail the same way here.
	g := simerr.NewGuard(e.inner.Name(), t.Name, lim.MaxCycles, lim.StallCycles, lim.Deadline)
	e.last.Engaged = true
	e.last.Lag = lag
	e.last.Windows = target
	e.last.Skipped = times * int64(lag) // at most target, so it fits
	e.last.CyclesPerLag = probe.Diff(pts.cycles...)
	if err := g.Over(cycles, instrs); err != nil {
		return Result{}, err, true
	}
	if uc != nil && !uc.AddExtrapolated(times, pts.counters...) {
		return overflow("a stall-attribution total")
	}
	return Result{
		Machine:      samples[ref].r.Machine,
		Trace:        t.Name,
		Instructions: instrs,
		Cycles:       cycles,
	}, nil, true
}

// ladder is one family of reduced traces of a trace, indexed by size —
// body windows of a Period, outer iterations of a Nest — and the rules
// for sampling it.
type ladder struct {
	// order is the degree of the closure: 1 fits a line through runs
	// one lag apart, 2 a quadratic.
	order int

	// reduce builds the reduced trace of a size; full is the trace's own
	// size, which every reference stays below. split(size) is the first
	// op at which the reduced trace may differ from every longer one and
	// from the trace itself: a run of the trace stands for a run of the
	// reduced trace up to there.
	reduce func(size int) *trace.Trace
	split  func(size int) int
	full   int

	// warmup is the smallest reference size; stages grow the sample
	// count and the lags searched until one confirms.
	warmup int
	stages []ladderStage

	// budget bounds the simulated ops a stage may bring the ladder to (0:
	// no bound), and delta names what a confirmed lag fixes.
	budget int64
	delta  string
}

// congruentRef returns the latest of n samples that closes the run at
// target: congruent to it modulo lag, with order·lag samples after it;
// -1 when none is.
func (l *ladder) congruentRef(n, lag int, target int64) int {
	for i := n - 1 - l.order*lag; i >= 0; i-- {
		if (target-int64(l.warmup+i))%int64(lag) == 0 {
			return i
		}
	}
	return -1
}

// ladderStage samples the first samples reduced traces of a ladder and
// searches lags up to maxLag among them.
type ladderStage struct{ samples, maxLag int }

// sample is one reference run: its result, observed by its own
// counters.
type sample struct {
	r Result
	c *probe.Counters
}

// ladderPoints are the order+1 reference runs one lag apart that a
// difference or a closure spans.
type ladderPoints struct {
	cycles, instrs []int64
	counters       []*probe.Counters
}

// newLadderPoints returns storage for the points of an order.
func newLadderPoints(order int) *ladderPoints {
	n := order + 1
	return &ladderPoints{make([]int64, n), make([]int64, n), make([]*probe.Counters, n)}
}

// gather fills p with the runs from sample i on, lag apart.
func (p *ladderPoints) gather(samples []sample, i, lag int) *ladderPoints {
	for j := range p.counters {
		s := &samples[i+j*lag]
		p.cycles[j], p.instrs[j], p.counters[j] = s.r.Cycles, s.r.Instructions, s.c
	}
	return p
}

var (
	// periodStages are the loop ladder's stages (see extrapSamples).
	periodStages = []ladderStage{
		{extrapSamples, extrapMaxLag},
		{extrapSamplesExt, extrapMaxLagExt},
		{extrapSamplesMax, extrapMaxLagMax},
	}

	// nestStages are the nest ladder's stages: each allows the lags
	// that leave extrapMinPairs confirming triples.
	nestStages = []ladderStage{{16, 4}, {32, 12}, {64, 28}}
)

// nestWarmup is the smallest reference prefix of a nest, in outer
// iterations. It keeps a margin: with 8, a prototype closed two of
// 847 runs on the EXPERIMENTS grid to a wrong cycle count.
const nestWarmup = 16

// ladderFor picks the reduced-trace family for a trace: body-window
// slices of its Period, or — for a trace with no Period and no virtual
// iterations — outer-iteration prefixes of its Nest. banks is the
// machine's memory bank count. A non-empty reason means fall back.
func (e *Extrapolator) ladderFor(prep *trace.Prepared, extraIters int64, banks int) (ladder, string) {
	pd := prep.Period()
	if pd == nil {
		nt := prep.Nest()
		if nt == nil || extraIters > 0 {
			return ladder{}, "no steady-state period detected"
		}
		e.last.Span, e.last.Order = nt.Step, 2
		if need := nestWarmup + nestStages[0].samples + 1; nt.Outer < need {
			return ladder{}, fmt.Sprintf("too few outer iterations (%d, need %d)", nt.Outer, need)
		}
		// Prefixes are exact leading parts of the trace: no address
		// moves, so banks and tail identity need no check. A prefix
		// parts from longer ones where it ends.
		return ladder{
			order: 2, reduce: nt.Prefix, split: nt.Len, full: nt.Outer,
			warmup: nestWarmup, stages: nestStages,
			budget: int64(len(prep.Ops) / 2), delta: "second difference per outer iteration",
		}, ""
	}
	e.last.Span, e.last.Order = pd.Span, 1
	// Warmup: the smallest reference run must hold the full identity
	// horizon before its tail window.
	k0 := extrapWarmup(pd.Span)
	if need := k0 + extrapSamples + 1; pd.Iterations() < need {
		return ladder{}, fmt.Sprintf("too few iterations (%d, need %d)", pd.Iterations(), need)
	}
	if banks > 1 && !pd.BankSafe(banks) {
		return ladder{}, fmt.Sprintf("address strides not aligned to %d memory banks", banks)
	}
	if !pd.TailIdentityOK(k0) {
		return ladder{}, "reduced trace does not preserve tail address identity"
	}
	return ladder{
		order: 1, reduce: pd.Slice, split: pd.Diverge, full: pd.Iterations(),
		warmup: k0, stages: periodStages, delta: "per-iteration delta",
	}, ""
}

// climb simulates the ladder's samples on spine, the wrapped machine,
// each observed by a fresh counter set, stage by stage until a lag
// confirms, and returns them and the lag; a non-empty reason means
// fall back.
func (e *Extrapolator) climb(spine forker, l ladder, lim Limits, target int64) ([]sample, int, string) {
	sp := e.sampler(spine, l, lim)
	defer sp.close()
	// holds reports whether every run of order+1 samples lag apart has
	// the same order-th difference in cycles, instructions and every
	// counter.
	base, p := newLadderPoints(l.order), newLadderPoints(l.order)
	holds := func(lag int) bool {
		samples := sp.samples
		base.gather(samples, 0, lag)
		ok := samples[lag].r.Cycles > samples[0].r.Cycles
		for i := 1; ok && i+l.order*lag < len(samples); i++ {
			p.gather(samples, i, lag)
			ok = probe.Diff(p.cycles...) == probe.Diff(base.cycles...) &&
				probe.Diff(p.instrs...) == probe.Diff(base.instrs...) &&
				probe.DeltaEqual(base.counters, p.counters)
		}
		return ok
	}
	// findLag returns the smallest lag in [1, hi] that holds, or 0 if
	// there is none. A lag is only trusted with at least extrapMinPairs
	// confirming runs.
	findLag := func(hi int) int {
		if max := (len(sp.samples) - extrapMinPairs) / l.order; hi > max {
			hi = max
		}
		for lag := 1; lag <= hi; lag++ {
			if holds(lag) {
				return lag
			}
		}
		return 0
	}
	// Later stages shrink to the iterations the trace has; the first is
	// guaranteed by the engagement check in ladderFor.
	most := l.full - l.warmup - 1
	for _, st := range l.stages {
		// Re-search from lag 1 each stage: a short lag can sit above an
		// earlier stage's pair-count ceiling, and re-checking the rest is
		// cheap next to one reference simulation.
		if reason := sp.grow(min(st.samples, most)); reason != "" {
			return nil, 0, reason
		}
		lag := findLag(st.maxLag)
		if lag == 0 {
			continue
		}
		if l.order == 2 {
			// A nest extends its prefixes one at a time, within the
			// budget, until a reference congruent to the target has
			// order·lag samples after it, and the lag must then hold over
			// every sample. A loop never extends.
			for l.congruentRef(len(sp.samples), lag, target) < 0 && len(sp.samples) < most {
				if reason := sp.grow(len(sp.samples) + 1); reason != "" {
					return nil, 0, reason
				}
			}
			if !holds(lag) {
				return nil, 0, "the " + l.delta + " changed as the ladder grew to a congruent reference"
			}
		}
		return sp.samples, lag, ""
	}
	return nil, 0, "no fixed " + l.delta + " within the sampled ladder"
}

// sampler forks a ladder's samples. One run simulates them all: the
// spine, a probed run of the reduced trace one size past the largest
// sample so far, which holds every sample's ops up to its split. It
// pauses at each split, and a copy of it (the spare) resumes there on
// the sample's reduced trace and simulates only its tail, so every
// sample is the run of its reduced trace from cycle 0, at the cost of
// that tail (forker). When the ladder grows, the paused spine moves on
// to a longer reduced trace, so no op is simulated twice, across
// stages too.
type sampler struct {
	e       *Extrapolator
	l       ladder
	lim     Limits
	spine   forker
	spineC  *probe.Counters
	begun   bool // whether the spine's run has begun
	samples []sample
}

// sampler readies the ladder's spine, the wrapped machine.
func (e *Extrapolator) sampler(spine forker, l ladder, lim Limits) *sampler {
	if e.spare == nil {
		e.spare = spine.spare()
	}
	sp := &sampler{e: e, l: l, lim: lim, spine: spine, spineC: new(probe.Counters),
		samples: make([]sample, 0, l.stages[1].samples)}
	spine.SetProbe(sp.spineC)
	return sp
}

// close detaches the ladder's counters from both machines.
func (sp *sampler) close() {
	sp.spine.SetProbe(nil)
	sp.e.spare.SetProbe(nil)
}

// grow forks the samples up to n. The budget counts what they cost:
// the spine's way to the last split and each tail past its split.
func (sp *sampler) grow(n int) string {
	e, l, spine := sp.e, &sp.l, sp.spine
	if n <= len(sp.samples) {
		return ""
	}
	pos := 0
	if sp.begun {
		pos = spine.state().pos
	}
	trs := make([]*trace.Trace, 0, n-len(sp.samples))
	ops := e.last.SimulatedOps + int64(l.split(l.warmup+n-1)-pos)
	for size := l.warmup + len(sp.samples); size < l.warmup+n; size++ {
		tr := l.reduce(size)
		if tr == nil {
			return "reduced trace construction failed"
		}
		trs = append(trs, tr)
		ops += int64(len(tr.Ops) - l.split(size))
	}
	if l.budget > 0 && ops > l.budget {
		return fmt.Sprintf("a ladder of %d forked reference ops exceeds its budget of %d, half the trace", ops, l.budget)
	}
	long := l.reduce(l.warmup + n)
	if long == nil {
		return "reduced trace construction failed"
	}
	if sp.begun {
		spine.fork(spine, long, sp.spineC)
	} else if err := spine.begin(long, sp.lim); err != nil {
		return fmt.Sprintf("reference run failed: %v", err)
	}
	sp.begun = true
	for _, tr := range trs {
		size := l.warmup + len(sp.samples)
		from := spine.state().pos
		if _, _, err := spine.advance(l.split(size)); err != nil {
			return fmt.Sprintf("reference run (%d iterations) failed: %v", size, err)
		}
		c := sp.spineC.Clone()
		e.spare.fork(spine, tr, c)
		forked := e.spare.state().pos
		r, _, err := e.spare.advance(noPause)
		// The spare's refusals are the machine's: UnitsRefused covers
		// every sample.
		if p := spine.units(); p != nil {
			p.MergeRefused(e.spare.units())
		}
		e.last.SimulatedOps += int64(spine.state().pos-from) + int64(len(tr.Ops)-forked)
		if err != nil {
			return fmt.Sprintf("reference run (%d iterations) failed: %v", size, err)
		}
		sp.samples = append(sp.samples, sample{r, c})
	}
	return ""
}
