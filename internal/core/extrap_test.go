package core

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"

	"mfup/internal/bus"
	"mfup/internal/events"
	"mfup/internal/isa"
	"mfup/internal/loops"
	"mfup/internal/probe"
	"mfup/internal/simerr"
	"mfup/internal/trace"
)

func kernelTrace(t *testing.T, n int) *trace.Trace {
	t.Helper()
	k, err := loops.Get(n)
	if err != nil {
		t.Fatalf("kernel %d: %v", n, err)
	}
	return k.SharedTrace()
}

// TestExtrapolatorEngages checks the engine on its bread-and-butter
// case: a strided kernel on the CRAY-like machine must engage, cost
// far fewer simulated ops than the trace holds, and return the exact
// full-simulation result. The kernel is scaled up because the
// reference ladder has a fixed cost (~10k ops): only beyond the paper
// default length does O(1) beat O(n).
func TestExtrapolatorEngages(t *testing.T) {
	k, err := loops.Scaled(1, 4000)
	if err != nil {
		t.Fatal(err)
	}
	tr := k.SharedTrace()
	bare := must(NewBasic(CRAYLike, M11BR5))
	want, err := bare.RunChecked(tr, DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	e := Extrapolate(must(NewBasic(CRAYLike, M11BR5)))
	got, err := e.RunChecked(tr, DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("extrapolated %+v, full %+v", got, want)
	}
	s := e.Stats()
	if !s.Engaged {
		t.Fatalf("did not engage: %s", s.Reason)
	}
	if s.Lag < 1 || s.Span <= 0 || s.Skipped <= 0 || s.CyclesPerLag <= 0 {
		t.Errorf("implausible stats %+v", s)
	}
	if s.Windows != int64(tr.Prepared().Period().Windows) {
		t.Errorf("Windows = %d, want the trace's %d", s.Windows, tr.Prepared().Period().Windows)
	}
	if s.SimulatedOps >= int64(len(tr.Ops)) {
		t.Errorf("simulated %d ops, no cheaper than the %d-op trace", s.SimulatedOps, len(tr.Ops))
	}
}

// TestExtrapolatorIdempotentWrap checks that wrapping an Extrapolator
// returns it unchanged rather than stacking engines.
func TestExtrapolatorIdempotentWrap(t *testing.T) {
	e := Extrapolate(must(NewBasic(CRAYLike, M11BR5)))
	if Extrapolate(e) != e {
		t.Error("double wrap built a second engine")
	}
}

// TestExtrapolatorFallbackNoPeriod checks the clean-fallback path on a
// trace with data-dependent control flow: same result as the bare
// machine, stats reporting why.
func TestExtrapolatorFallbackNoPeriod(t *testing.T) {
	tr := kernelTrace(t, 13)
	want, err := must(NewBasic(CRAYLike, M11BR5)).RunChecked(tr, DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	e := Extrapolate(must(NewBasic(CRAYLike, M11BR5)))
	got, err := e.RunChecked(tr, DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("fallback result %+v differs from bare %+v", got, want)
	}
	if s := e.Stats(); s.Engaged || !strings.Contains(s.Reason, "no steady-state period") {
		t.Errorf("stats = %+v, want period-detection fallback", s)
	}
}

// TestExtrapolatorFallbackRecorder checks that an attached event
// recorder forces full simulation — lifecycle events exist only for
// simulated instructions — and that the recorded stream is complete.
func TestExtrapolatorFallbackRecorder(t *testing.T) {
	tr := kernelTrace(t, 1)
	ref := events.NewRecorder(0)
	bare := must(NewBasic(CRAYLike, M11BR5))
	bare.SetRecorder(ref)
	if _, err := bare.RunChecked(tr, DefaultLimits()); err != nil {
		t.Fatal(err)
	}
	bare.SetRecorder(nil)

	rec := events.NewRecorder(0)
	e := Extrapolate(must(NewBasic(CRAYLike, M11BR5)))
	e.SetRecorder(rec)
	if _, err := e.RunChecked(tr, DefaultLimits()); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Engaged || !strings.Contains(s.Reason, "recorder") {
		t.Errorf("stats = %+v, want recorder fallback", s)
	}
	if rec.Events() != ref.Events() {
		t.Errorf("recorded %d events through the wrapper, %d bare", rec.Events(), ref.Events())
	}
}

// countingProbe is a probe.Probe that is not a *probe.Counters: the
// engine cannot extrapolate through it and must fall back, still
// driving it for the full run.
type countingProbe struct{ issued int64 }

func (p *countingProbe) Begin(machine, trace string, width, capacity int) {}
func (p *countingProbe) Issue(cycle int64, n int64)                       { p.issued += n }
func (p *countingProbe) Stall(cycle int64, r probe.Reason, slots int64)   {}
func (p *countingProbe) Writeback(cycle int64, u isa.Unit, busy int64)    {}
func (p *countingProbe) BranchResolve(cycle int64)                        {}
func (p *countingProbe) Occupancy(level int, cycles int64)                {}
func (p *countingProbe) End(cycles int64)                                 {}

// TestExtrapolatorFallbackProbeType checks the unsupported-probe
// fallback: results unchanged, the caller's probe sees the whole run.
func TestExtrapolatorFallbackProbeType(t *testing.T) {
	tr := kernelTrace(t, 1)
	var p countingProbe
	e := Extrapolate(must(NewBasic(CRAYLike, M11BR5)))
	e.SetProbe(&p)
	r, err := e.RunChecked(tr, DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Engaged || !strings.Contains(s.Reason, "probe") {
		t.Errorf("stats = %+v, want probe-type fallback", s)
	}
	if p.issued != r.Instructions {
		t.Errorf("probe saw %d issues, run reported %d instructions", p.issued, r.Instructions)
	}
}

// TestExtrapolatorBudget checks that skipped iterations still count
// against the cycle budget: a budget the full run would blow must
// fail the extrapolated run with the same structured error, even
// though the engine never simulates past it.
func TestExtrapolatorBudget(t *testing.T) {
	tr := kernelTrace(t, 1)
	full, err := must(NewBasic(CRAYLike, M11BR5)).RunChecked(tr, DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	lim := DefaultLimits()
	lim.MaxCycles = full.Cycles - 1
	e := Extrapolate(must(NewBasic(CRAYLike, M11BR5)))
	_, err = e.RunChecked(tr, lim)
	se, ok := err.(*SimError)
	if !ok || se.Kind != simerr.KindCycleBudget {
		t.Fatalf("err = %v, want cycle-budget SimError", err)
	}
	if !e.Stats().Engaged {
		t.Errorf("budget failure did not come from the engaged path: %s", e.Stats().Reason)
	}
	// One cycle of headroom and the same run must succeed exactly.
	lim.MaxCycles = full.Cycles
	got, err := e.RunChecked(tr, lim)
	if err != nil || got != full {
		t.Errorf("at the exact budget: %+v, %v; want %+v", got, err, full)
	}
}

// TestExtrapolatorVirtual checks virtual-iteration extension against
// ground truth: extrapolating LFK 1 from a 150-iteration trace to 200
// iterations must reproduce, bit for bit, the full simulation of the
// really-materialized 200-iteration trace — result and stall ledger.
func TestExtrapolatorVirtual(t *testing.T) {
	kSmall, err := loops.Scaled(1, 150)
	if err != nil {
		t.Fatal(err)
	}
	kBig, err := loops.Scaled(1, 200)
	if err != nil {
		t.Fatal(err)
	}
	vw, err := loops.VirtualWindows(kSmall, 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{M11BR5, M5BR2} {
		bare := must(NewBasic(CRAYLike, cfg))
		var wantC probe.Counters
		bare.SetProbe(&wantC)
		want, err := bare.RunChecked(kBig.SharedTrace(), DefaultLimits())
		if err != nil {
			t.Fatal(err)
		}
		bare.SetProbe(nil)

		e := Extrapolate(must(NewBasic(CRAYLike, cfg))).
			WithVirtual(map[string]int64{kSmall.SharedTrace().Name: vw})
		var gotC probe.Counters
		e.SetProbe(&gotC)
		got, err := e.RunChecked(kSmall.SharedTrace(), DefaultLimits())
		if err != nil {
			t.Fatal(err)
		}
		if !e.Stats().Engaged {
			t.Fatalf("%s: virtual run fell back: %s", cfg.Name(), e.Stats().Reason)
		}
		if got.Cycles != want.Cycles || got.Instructions != want.Instructions {
			t.Errorf("%s: virtual %+v, materialized %+v", cfg.Name(), got, want)
		}
		if gotC.Issued != wantC.Issued || gotC.Slots != wantC.Slots || gotC.Stalls != wantC.Stalls {
			t.Errorf("%s: virtual counters diverge:\n got %v\nwant %v", cfg.Name(), gotC.String(), wantC.String())
		}
	}
}

// TestExtrapolatorVirtualStrict checks the strict contract: virtual
// iterations on a trace with no steady state are unreachable, and the
// run must fail with a structured error rather than silently
// simulating fewer iterations than asked.
func TestExtrapolatorVirtualStrict(t *testing.T) {
	tr := kernelTrace(t, 13) // no period
	e := Extrapolate(must(NewBasic(CRAYLike, M11BR5))).
		WithVirtual(map[string]int64{tr.Name: 1000})
	_, err := e.RunChecked(tr, DefaultLimits())
	se, ok := err.(*SimError)
	if !ok || se.Kind != simerr.KindBadTrace || !strings.Contains(se.Msg, "cannot extrapolate") {
		t.Fatalf("err = %v, want bad-trace SimError naming the virtual iterations", err)
	}
}

// TestExtrapolatorVirtualBestEffort checks the tables-mode softening:
// with BestEffort set, the same unreachable virtual run degrades to a
// full simulation of the materialized trace instead of failing.
func TestExtrapolatorVirtualBestEffort(t *testing.T) {
	tr := kernelTrace(t, 13)
	want, err := must(NewBasic(CRAYLike, M11BR5)).RunChecked(tr, DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	e := Extrapolate(must(NewBasic(CRAYLike, M11BR5))).
		WithVirtual(map[string]int64{tr.Name: 1000}).BestEffort()
	got, err := e.RunChecked(tr, DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("best-effort %+v, bare %+v", got, want)
	}
	if e.Stats().Engaged {
		t.Error("best-effort run claims engagement")
	}
}

// TestExtrapolatorVirtualOverflow checks virtual iterations whose
// totals do not fit in an int64 fail with a structured error instead
// of wrapping, in best-effort mode too, and leave an attached probe
// untouched when only its issue-slot totals overflow.
func TestExtrapolatorVirtualOverflow(t *testing.T) {
	tr := kernelTrace(t, 1)
	wide := must(NewMultiIssueOOO(M11BR5.WithIssue(8, bus.BusN)))
	for _, tc := range []struct {
		name       string
		m          Machine
		windows    int64
		bestEffort bool
		probe      bool
		want       string
	}{
		{"cycles", must(NewBasic(CRAYLike, M11BR5)), 4_000_000_000_000_000_000, false, false, "instruction count overflows"},
		{"best effort", must(NewBasic(CRAYLike, M11BR5)), 4_000_000_000_000_000_000, true, false, "instruction count overflows"},
		{"window count", must(NewBasic(CRAYLike, M11BR5)), math.MaxInt64 - 10, false, false, "window count overflows"},
		{"probe slots", wide, 100_000_000_000_000_000, false, true, "stall-attribution total overflows"},
	} {
		e := Extrapolate(tc.m).WithVirtual(map[string]int64{tr.Name: tc.windows})
		if tc.bestEffort {
			e.BestEffort()
		}
		var c probe.Counters
		if tc.probe {
			e.SetProbe(&c)
		}
		r, err := e.RunChecked(tr, DefaultLimits())
		se, ok := err.(*SimError)
		if !ok || se.Kind != simerr.KindBadTrace || se.Transient || !strings.Contains(se.Msg, tc.want) {
			t.Errorf("%s: result %+v, err %v; want a permanent bad-trace SimError containing %q", tc.name, r, err, tc.want)
		}
		if c.Runs != 0 || c.Slots != 0 {
			t.Errorf("%s: refused run touched the probe: %+v", tc.name, c)
		}
	}
}

// TestCanExtrapolatePerKernel pins the machine-independent feasibility
// check across the Livermore set: the strided kernels qualify, and
// each excluded kernel is excluded for its documented reason.
func TestCanExtrapolatePerKernel(t *testing.T) {
	wantErr := map[int]string{
		2: "no steady-state period", 4: "too few iterations",
		6: "no steady-state period", 8: "no steady-state period",
		13: "no steady-state period", 14: "tail address identity",
	}
	for n := 1; n <= 14; n++ {
		err := CanExtrapolate(kernelTrace(t, n))
		if want, excluded := wantErr[n]; excluded {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("LFK %d: CanExtrapolate = %v, want error containing %q", n, err, want)
			}
		} else if err != nil {
			t.Errorf("LFK %d: CanExtrapolate = %v, want nil", n, err)
		}
	}
}

// TestExtrapolatorVirtualNegative checks that a negative virtual
// iteration count fails the run with a permanent bad-trace SimError,
// under BestEffort too, instead of subtracting iterations from the
// built trace (on LFK 1 at 4000, -1 once returned 55,995 of its 56,009
// instructions, and -10000 a negative count).
func TestExtrapolatorVirtualNegative(t *testing.T) {
	k, err := loops.Scaled(1, 4000)
	if err != nil {
		t.Fatal(err)
	}
	tr := k.SharedTrace()
	for _, extra := range []int64{-1, -10000} {
		for _, bestEffort := range []bool{false, true} {
			e := Extrapolate(must(NewBasic(CRAYLike, M11BR5))).WithVirtual(map[string]int64{tr.Name: extra})
			if bestEffort {
				e.BestEffort()
			}
			r, err := e.RunChecked(tr, DefaultLimits())
			se, ok := err.(*SimError)
			if !ok || se.Kind != simerr.KindBadTrace || se.Transient || r != (Result{}) {
				t.Errorf("extra %d, best effort %v: result %+v, err %v; want a permanent bad-trace SimError",
					extra, bestEffort, r, err)
			}
		}
	}
}

// TestNestPrefixViewsMatchCopies checks the premise of the nest ladder
// on every machine model: a prefix view, whose last op is a branch the
// source took, runs exactly like a copied prefix whose last branch
// falls through, for every prefix of LFK 6 at 64.
func TestNestPrefixViewsMatchCopies(t *testing.T) {
	k, err := loops.Scaled(6, 64)
	if err != nil {
		t.Fatal(err)
	}
	nt := k.SharedTrace().Prepared().Nest()
	for _, m := range everyMachine(M11BR5) {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			t.Parallel()
			for kk := 1; kk < nt.Outer; kk++ {
				view := nt.Prefix(kk)
				cp := &trace.Trace{Name: view.Name, Ops: append([]trace.Op(nil), view.Ops...)}
				cp.Ops[len(cp.Ops)-1].Taken = false
				got, gotErr := m.RunChecked(view, DefaultLimits())
				want, wantErr := m.RunChecked(cp, DefaultLimits())
				if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("prefix of %d outer iterations: view %+v, %v; copy %+v, %v", kk, got, gotErr, want, wantErr)
				}
			}
		})
	}
}

// TestExtrapolatorNestPaperLength checks that at the paper's length
// (40) LFK 6 falls back before simulating anything: the first stage's
// 16 prefixes would cost 4,282 forked ops (the run of the longest one),
// more than half the trace's 6,634.
func TestExtrapolatorNestPaperLength(t *testing.T) {
	tr := kernelTrace(t, 6)
	cfg := M11BR5.WithIssue(2, bus.BusN)
	want := must(must(NewMultiIssueOOO(cfg)).RunChecked(tr, DefaultLimits()))
	e := Extrapolate(must(NewMultiIssueOOO(cfg)))
	if got := must(e.RunChecked(tr, DefaultLimits())); got != want {
		t.Errorf("fallback result %+v differs from bare %+v", got, want)
	}
	if s := e.Stats(); s.Engaged || s.Order != 2 || s.SimulatedOps != 0 || !strings.Contains(s.Reason, "exceeds its budget") {
		t.Errorf("stats %+v, want the nest ladder refused by its budget before any reference run", s)
	}
}

// TestNestNeverExtends pins that the nest closure changes no workload:
// CanExtrapolate still refuses LFK 6 at every build, so ScaleKernels
// clamps it with the same note, and the scalar loops at 100000 carry
// exactly the virtual windows and notes they did before nests closed.
func TestNestNeverExtends(t *testing.T) {
	for _, n := range []int{40, 256} {
		k, err := loops.Scaled(6, n)
		if err != nil {
			t.Fatal(err)
		}
		if err := CanExtrapolate(k.SharedTrace()); err == nil || !strings.Contains(err.Error(), "no steady-state period") {
			t.Errorf("LFK 6 at %d: CanExtrapolate = %v, want the no-period refusal", n, err)
		}
	}
	w := ScaleKernels(loops.ByClass(loops.Scalar), 100000)
	if want := map[string]int64{"lfk05": 96000, "lfk11": 96000}; !maps.Equal(w.Virtual, want) {
		t.Errorf("Virtual = %v, want %v", w.Virtual, want)
	}
	wantNotes := []string{
		"LFK 6 (general linear recurrence): clamped to 256 iterations: core: lfk06: no steady-state period detected",
		"LFK 13 (2-D particle in cell): clamped to 1000 iterations: core: lfk13: no steady-state period detected",
		"LFK 14 (1-D particle in cell): clamped to 250 iterations: core: lfk14: a reduced trace does not preserve tail address identity",
	}
	if !slices.Equal(w.Notes, wantNotes) {
		t.Errorf("Notes = %q, want %q", w.Notes, wantNotes)
	}
}
