package probe

import (
	"math"
	"reflect"
	"testing"

	"mfup/internal/isa"
)

// runCounters drives c through one synthetic run via the Probe
// interface, so every total is derived exactly the way a machine
// would: issues, attributed stalls, unit work, occupancy, and the
// End-derived drain remainder.
func runCounters(width int, cycles, issued, raw int64, occ map[int]int64) *Counters {
	c := new(Counters)
	c.Begin("m", "t", width, 4)
	c.Issue(0, issued)
	c.Stall(0, ReasonRAW, raw)
	c.Writeback(0, isa.FloatAdd, 6)
	c.BranchResolve(0)
	for level, n := range occ {
		c.Occupancy(level, n)
	}
	c.End(cycles)
	return c
}

// TestAddExtrapolatedPreservesCheck verifies the core accounting
// property the extrapolation engine leans on: if the reference run and
// its one-period successor each satisfy the slot ledger, so does the
// linear combination ref + times*(next-ref), for small and enormous
// multipliers alike.
func TestAddExtrapolatedPreservesCheck(t *testing.T) {
	ref := runCounters(2, 100, 120, 50, map[int]int64{2: 90, 3: 10})
	next := runCounters(2, 103, 124, 52, map[int]int64{2: 92, 3: 11})
	for _, e := range []*Counters{ref, next} {
		if err := e.Check(); err != nil {
			t.Fatalf("reference counters unsound: %v", err)
		}
	}
	for _, times := range []int64{0, 1, 2, 1_000_000_000} {
		var c Counters
		c.AddExtrapolated(times, ref, next)
		if err := c.Check(); err != nil {
			t.Errorf("times=%d: Check failed: %v", times, err)
		}
		if want := ref.Cycles + times*(next.Cycles-ref.Cycles); c.Cycles != want {
			t.Errorf("times=%d: Cycles = %d, want %d", times, c.Cycles, want)
		}
		if want := ref.Issued + times*(next.Issued-ref.Issued); c.Issued != want {
			t.Errorf("times=%d: Issued = %d, want %d", times, c.Issued, want)
		}
		if want := ref.Stalls[ReasonRAW] + times*(next.Stalls[ReasonRAW]-ref.Stalls[ReasonRAW]); c.Stalls[ReasonRAW] != want {
			t.Errorf("times=%d: RAW stalls = %d, want %d", times, c.Stalls[ReasonRAW], want)
		}
		if c.Runs != 1 {
			t.Errorf("times=%d: Runs = %d, want 1", times, c.Runs)
		}
	}
}

// TestAddExtrapolatedOverflow checks a multiplier whose totals do not
// fit in an int64 is refused and leaves the counters untouched.
func TestAddExtrapolatedOverflow(t *testing.T) {
	ref := runCounters(2, 100, 120, 50, map[int]int64{2: 90, 3: 10})
	next := runCounters(2, 103, 124, 52, map[int]int64{2: 92, 3: 11})
	c := *ref
	c.OccupancyHist = append([]int64(nil), ref.OccupancyHist...)
	if c.AddExtrapolated(4_000_000_000_000_000_000, ref, next) {
		t.Fatalf("overflowing multiplier accepted: %+v", c)
	}
	if !reflect.DeepEqual(&c, ref) {
		t.Errorf("refused fold changed the counters:\n got  %+v\n want %+v", c, *ref)
	}
	if !c.AddExtrapolated(1_000_000_000_000_000, ref, next) {
		t.Error("a multiplier whose totals fit was refused")
	}
}

// TestAddExtrapolatedSkippedRegion pins the skipped-region semantics:
// nothing is simulated between the reference runs, yet every additive
// total — unit work, branches, the occupancy histogram — lands exactly
// where a full simulation of times periods would put it.
func TestAddExtrapolatedSkippedRegion(t *testing.T) {
	ref := runCounters(1, 40, 30, 10, map[int]int64{1: 40})
	next := runCounters(1, 44, 33, 11, map[int]int64{1: 42, 5: 2})
	const times = 1000
	var c Counters
	c.AddExtrapolated(times, ref, next)
	if want := ref.Branches + times*(next.Branches-ref.Branches); c.Branches != want {
		t.Errorf("Branches = %d, want %d", c.Branches, want)
	}
	u := isa.FloatAdd
	if want := ref.FU[u].Busy + times*(next.FU[u].Busy-ref.FU[u].Busy); c.FU[u].Busy != want {
		t.Errorf("FU busy = %d, want %d", c.FU[u].Busy, want)
	}
	// Histogram level 5 exists only in next: the skipped region adds
	// times copies of its delta even though ref never saw the level.
	if want := times * 2; histAt(&c, 5) != int64(want) {
		t.Errorf("occupancy level 5 = %d, want %d", histAt(&c, 5), want)
	}
	if want := int64(40) + times*2; histAt(&c, 1) != want {
		t.Errorf("occupancy level 1 = %d, want %d", histAt(&c, 1), want)
	}
	// Accumulation: folding a second extrapolated run into the same
	// Counters adds on top, as one Counters observing two runs.
	c.AddExtrapolated(1, ref, next)
	if err := c.Check(); err != nil {
		t.Errorf("after second fold: %v", err)
	}
	if c.Runs != 2 {
		t.Errorf("Runs = %d, want 2", c.Runs)
	}
}

// TestDeltaEqual exercises the steady-state fingerprint predicate on
// matching pairs, on every observable field that can break the match,
// and on histograms of unequal recorded length.
func TestDeltaEqual(t *testing.T) {
	mk := func() (*Counters, *Counters, *Counters, *Counters) {
		a0 := runCounters(2, 100, 120, 50, map[int]int64{2: 90})
		a1 := runCounters(2, 104, 125, 52, map[int]int64{2: 93})
		b0 := runCounters(2, 200, 240, 100, map[int]int64{2: 180})
		b1 := runCounters(2, 204, 245, 102, map[int]int64{2: 183})
		return a0, a1, b0, b1
	}
	a0, a1, b0, b1 := mk()
	if !DeltaEqual([]*Counters{a0, a1}, []*Counters{b0, b1}) {
		t.Fatal("identical deltas reported unequal")
	}
	perturb := []struct {
		name string
		mut  func(c *Counters)
	}{
		{"issued", func(c *Counters) { c.Issued++ }},
		{"cycles", func(c *Counters) { c.Cycles++ }},
		{"slots", func(c *Counters) { c.Slots++ }},
		{"branches", func(c *Counters) { c.Branches++ }},
		{"stall", func(c *Counters) { c.Stalls[ReasonRAW]++ }},
		{"fu-ops", func(c *Counters) { c.FU[isa.FloatAdd].Ops++ }},
		{"fu-busy", func(c *Counters) { c.FU[isa.FloatAdd].Busy++ }},
		{"width", func(c *Counters) { c.Width++ }},
		{"hist", func(c *Counters) { c.Occupancy(2, 1) }},
		{"hist-new-level", func(c *Counters) { c.Occupancy(7, 1) }},
	}
	for _, p := range perturb {
		a0, a1, b0, b1 := mk()
		p.mut(b1)
		if DeltaEqual([]*Counters{a0, a1}, []*Counters{b0, b1}) {
			t.Errorf("%s perturbation went undetected", p.name)
		}
	}
	// Length-mismatched histograms with identical implied deltas are
	// still equal: levels beyond the recorded range read as zero.
	a0, a1, b0, b1 = mk()
	b0.Occupancy(9, 0)
	if !DeltaEqual([]*Counters{a0, a1}, []*Counters{b0, b1}) {
		t.Error("zero-padded histogram broke equality")
	}
}

// TestNewton checks the closure arithmetic against direct evaluation:
// a line through two samples and a quadratic through three, at
// multipliers from 0 to 1e9, and overflow refused rather than wrapped.
func TestNewton(t *testing.T) {
	line := func(x int64) int64 { return 7 + 3*x }
	quad := func(x int64) int64 { return 5 - 2*x + 4*x*x }
	for _, times := range []int64{0, 1, 2, 3, 17, 1_000_000_000} {
		if got, ok := Newton(times, line(0), line(1)); !ok || got != line(times) {
			t.Errorf("line at %d: %d, %v; want %d", times, got, ok, line(times))
		}
		if got, ok := Newton(times, quad(0), quad(1), quad(2)); !ok || got != quad(times) {
			t.Errorf("quadratic at %d: %d, %v; want %d", times, got, ok, quad(times))
		}
	}
	if d := Diff(quad(5), quad(6), quad(7)); d != 8 {
		t.Errorf("second difference %d, want 8", d)
	}
	if d := Diff(line(5), line(6)); d != 3 {
		t.Errorf("first difference %d, want 3", d)
	}
	for _, times := range []int64{3_100_000_000, math.MaxInt64} {
		if got, ok := Newton(times, quad(0), quad(1), quad(2)); ok {
			t.Errorf("quadratic at %d: %d accepted, want overflow", times, got)
		}
	}
}

// TestAddExtrapolatedQuadratic folds three reference runs one lag
// apart, whose per-lag deltas grow by a fixed amount, and checks every
// total against the quadratic and the slot ledger.
func TestAddExtrapolatedQuadratic(t *testing.T) {
	// Each lag adds 10 more cycles and 12 more issues than the last.
	r0 := runCounters(2, 100, 120, 50, map[int]int64{2: 90})
	r1 := runCounters(2, 130, 160, 65, map[int]int64{2: 115})
	r2 := runCounters(2, 170, 212, 84, map[int]int64{2: 150})
	at := func(a, b, c, times int64) int64 { return a + times*(b-a) + times*(times-1)/2*(c-2*b+a) }
	for _, times := range []int64{0, 1, 2, 5, 100_000} {
		var c Counters
		if !c.AddExtrapolated(times, r0, r1, r2) {
			t.Fatalf("times=%d: refused", times)
		}
		if err := c.Check(); err != nil {
			t.Errorf("times=%d: Check failed: %v", times, err)
		}
		if want := at(r0.Cycles, r1.Cycles, r2.Cycles, times); c.Cycles != want {
			t.Errorf("times=%d: Cycles = %d, want %d", times, c.Cycles, want)
		}
		if want := at(r0.Stalls[ReasonRAW], r1.Stalls[ReasonRAW], r2.Stalls[ReasonRAW], times); c.Stalls[ReasonRAW] != want {
			t.Errorf("times=%d: RAW stalls = %d, want %d", times, c.Stalls[ReasonRAW], want)
		}
		if want := at(histAt(r0, 2), histAt(r1, 2), histAt(r2, 2), times); histAt(&c, 2) != want {
			t.Errorf("times=%d: occupancy level 2 = %d, want %d", times, histAt(&c, 2), want)
		}
	}
	if !DeltaEqual([]*Counters{r0, r1, r2}, []*Counters{r0, r1, r2}) {
		t.Error("a run's second differences differ from themselves")
	}
	r3 := runCounters(2, 220, 276, 107, map[int]int64{2: 195})
	if !DeltaEqual([]*Counters{r0, r1, r2}, []*Counters{r1, r2, r3}) {
		t.Error("runs with one fixed second difference reported unequal")
	}
	r3.Stalls[ReasonRAW]++
	if DeltaEqual([]*Counters{r0, r1, r2}, []*Counters{r1, r2, r3}) {
		t.Error("a perturbed second difference went undetected")
	}
}
