package probe

// Steady-state extrapolation support. The extrapolation engine
// (internal/core) never lets a machine drive the attached Counters
// through a skipped region — nothing is simulated there. Instead it
// measures two short reference runs one steady-state period apart and
// folds their difference, scaled by the number of skipped periods,
// into the user's Counters. Every Counters total is additive across
// cycles (issued instructions, per-reason stall slots, per-unit work,
// occupancy cycles), so the linear combination below preserves the
// Check slot-ledger invariant exactly: if ref and next each satisfy
// Issued + sum(Stalls) == Slots, so does ref + times*(next-ref).

// AddExtrapolated folds an extrapolated run into c: the totals of a
// reference run ref plus times copies of the per-period difference
// (next - ref), counted as one completed run. ref and next must be
// single-run Counters observed on the same machine and trace, next
// exactly one steady-state period after ref; neither is modified. It
// reports false, leaving c unchanged, when a total would overflow
// int64 — Slots, at Width per cycle, overflows first.
func (c *Counters) AddExtrapolated(ref, next *Counters, times int64) bool {
	x := *c
	x.Machine = next.Machine
	x.Trace = next.Trace
	x.Runs++
	x.Width = next.Width
	if next.Capacity > x.Capacity {
		x.Capacity = next.Capacity
	}
	fits := true
	lerp := func(total *int64, a, b int64) {
		v, ok1 := addMul(a, times, b-a)
		s, ok2 := addMul(*total, 1, v)
		*total, fits = s, fits && ok1 && ok2
	}
	lerp(&x.Issued, ref.Issued, next.Issued)
	lerp(&x.Cycles, ref.Cycles, next.Cycles)
	lerp(&x.Slots, ref.Slots, next.Slots)
	lerp(&x.Branches, ref.Branches, next.Branches)
	for r := range x.Stalls {
		lerp(&x.Stalls[r], ref.Stalls[r], next.Stalls[r])
	}
	for u := range x.FU {
		lerp(&x.FU[u].Ops, ref.FU[u].Ops, next.FU[u].Ops)
		lerp(&x.FU[u].Busy, ref.FU[u].Busy, next.FU[u].Busy)
	}
	if n := max(len(ref.OccupancyHist), len(next.OccupancyHist), len(c.OccupancyHist)); n > 0 {
		x.OccupancyHist = make([]int64, n)
		copy(x.OccupancyHist, c.OccupancyHist)
	}
	for i := range x.OccupancyHist {
		lerp(&x.OccupancyHist[i], histAt(ref, i), histAt(next, i))
	}
	if !fits {
		return false
	}
	*c = x
	return true
}

// addMul returns a + n*d for n >= 0 and whether it fits in an int64.
func addMul(a, n, d int64) (int64, bool) {
	p := n * d
	s := a + p
	return s, (n == 0 || p/n == d) && (s > a) == (p > 0)
}

// DeltaEqual reports whether two pairs of Counters have identical
// field-wise differences: (a1 - a0) == (b1 - b0). The extrapolation
// engine uses it to test that consecutive loop-length increments
// change every observable total by the same amount — the counter-side
// fingerprint of a machine in steady state.
func DeltaEqual(a0, a1, b0, b1 *Counters) bool {
	if a1.Issued-a0.Issued != b1.Issued-b0.Issued ||
		a1.Cycles-a0.Cycles != b1.Cycles-b0.Cycles ||
		a1.Slots-a0.Slots != b1.Slots-b0.Slots ||
		a1.Branches-a0.Branches != b1.Branches-b0.Branches {
		return false
	}
	if a0.Width != b0.Width || a1.Width != b1.Width {
		return false
	}
	for r := range a0.Stalls {
		if a1.Stalls[r]-a0.Stalls[r] != b1.Stalls[r]-b0.Stalls[r] {
			return false
		}
	}
	for u := range a0.FU {
		if a1.FU[u].Ops-a0.FU[u].Ops != b1.FU[u].Ops-b0.FU[u].Ops ||
			a1.FU[u].Busy-a0.FU[u].Busy != b1.FU[u].Busy-b0.FU[u].Busy {
			return false
		}
	}
	n := len(a0.OccupancyHist)
	for _, c := range []*Counters{a1, b0, b1} {
		if len(c.OccupancyHist) > n {
			n = len(c.OccupancyHist)
		}
	}
	for i := 0; i < n; i++ {
		if histAt(a1, i)-histAt(a0, i) != histAt(b1, i)-histAt(b0, i) {
			return false
		}
	}
	return true
}

// histAt reads an occupancy-histogram level, treating levels beyond
// the recorded range as zero (histograms grow only as levels occur).
func histAt(c *Counters, level int) int64 {
	if level < len(c.OccupancyHist) {
		return c.OccupancyHist[level]
	}
	return 0
}
