package probe

import (
	"math"
	"math/bits"

	"mfup/internal/isa"
)

// Steady-state extrapolation support. The extrapolation engine
// (internal/core) never lets a machine drive the attached Counters
// through a skipped region — nothing is simulated there. Instead it
// measures short reference runs one steady-state period (a lag) apart
// and folds the polynomial through them, evaluated at the full
// length, into the user's Counters: a line through two runs for a
// loop whose every iteration costs the same, a quadratic through three
// for a nest whose outer iterations grow by a fixed amount. Every
// Counters total is additive across cycles (issued instructions,
// per-reason stall slots, per-unit work, occupancy cycles), and either
// polynomial is a fixed linear combination of the reference runs, so
// it preserves the Check slot-ledger invariant exactly: if each
// reference run satisfies Issued + sum(Stalls) == Slots, so does the
// combination.

// maxOrder is the highest polynomial degree the fold supports.
const maxOrder = 2

// Diff returns the forward difference of order len(f)-1 of samples f
// taken one lag apart (2 <= len(f) <= 3): f[1]-f[0], or
// f[2]-2f[1]+f[0]. A machine in steady state keeps it fixed wherever
// the samples start.
func Diff(f ...int64) int64 {
	var d [maxOrder + 1]int64
	for n := copy(d[:], f); n > 1; n-- {
		for i := 0; i+1 < n; i++ {
			d[i] = d[i+1] - d[i]
		}
	}
	return d[0]
}

// Newton returns the value times >= 0 lags past f[0] of the polynomial
// through samples f taken one lag apart (2 <= len(f) <= 3), by Newton's
// forward-difference formula, and whether it fits in an int64:
// f[0] + times*Diff(f[:2]...) for two samples, plus
// times*(times-1)/2 * Diff(f...) for three.
func Newton(times int64, f ...int64) (int64, bool) {
	var d [maxOrder + 1]int64
	n := copy(d[:], f)
	sum, ok := d[0], true
	c := int64(1) // C(times, j)
	for j := 1; j < n; j++ {
		for i := 0; i+j < n; i++ {
			d[i] = d[i+1] - d[i]
		}
		var fits bool
		if c, fits = binomialNext(c, times, j); !fits {
			return 0, false
		}
		sum, fits = addMul(sum, c, d[0])
		ok = ok && fits
	}
	return sum, ok
}

// binomialNext advances c = C(t, j-1) to C(t, j) = c*(t-j+1)/j and
// reports whether it fits in an int64. The division is exact.
func binomialNext(c, t int64, j int) (int64, bool) {
	f := t - int64(j) + 1
	if c == 0 || f <= 0 {
		return 0, true
	}
	hi, lo := bits.Mul64(uint64(c), uint64(f))
	if hi >= uint64(j) {
		return 0, false
	}
	q, _ := bits.Div64(hi, lo, uint64(j))
	return int64(q), q <= math.MaxInt64
}

// addMul returns a + n*d for n >= 0 and whether it fits in an int64.
func addMul(a, n, d int64) (int64, bool) {
	p := n * d
	s := a + p
	return s, (n == 0 || p/n == d) && (s > a) == (p > 0)
}

// AddExtrapolated folds an extrapolated run into c: the totals times
// lags past refs[0] of the polynomial through the reference runs (see
// Newton), counted as one completed run. refs are two or three
// single-run Counters observed on the same machine and trace, each one
// steady-state period after the one before; none is modified. It
// reports false, leaving c unchanged, when a total would overflow
// int64 — Slots, at Width per cycle, overflows first.
func (c *Counters) AddExtrapolated(times int64, refs ...*Counters) bool {
	last := refs[len(refs)-1]
	x := *c
	x.Machine = last.Machine
	x.Trace = last.Trace
	x.Runs++
	x.Width = last.Width
	if last.Capacity > x.Capacity {
		x.Capacity = last.Capacity
	}
	levels := len(c.OccupancyHist)
	for _, r := range refs {
		levels = max(levels, len(r.OccupancyHist))
	}
	sum := make([]int64, numTotals+levels)
	fits := true
	var f [maxOrder + 1]int64
	for i := range sum {
		for j, r := range refs {
			f[j] = r.total(i)
		}
		v, ok1 := Newton(times, f[:len(refs)]...)
		s, ok2 := addMul(c.total(i), 1, v)
		sum[i], fits = s, fits && ok1 && ok2
	}
	if !fits {
		return false
	}
	x.Issued, x.Cycles, x.Slots, x.Branches = sum[0], sum[1], sum[2], sum[3]
	copy(x.Stalls[:], sum[4:])
	for u := range x.FU {
		x.FU[u].Ops, x.FU[u].Busy = sum[4+NumReasons+2*u], sum[4+NumReasons+2*u+1]
	}
	if levels > 0 {
		x.OccupancyHist = sum[numTotals:]
	}
	*c = x
	return true
}

// DeltaEqual reports whether two runs of reference Counters, each
// taken one lag apart, have the same forward difference in every
// observable total (see Diff): (a[1] - a[0]) == (b[1] - b[0]) for two
// each, (a[2] - 2a[1] + a[0]) == (b[2] - 2b[1] + b[0]) for three. The
// extrapolation engine uses it to test that growing the loop by a lag
// changes every total by the same amount (or, for a nest, by amounts
// that grow by the same amount) — the counter-side fingerprint of a
// machine in steady state.
func DeltaEqual(a, b []*Counters) bool {
	levels := 0
	for j := range a {
		if a[j].Width != b[j].Width {
			return false
		}
		levels = max(levels, len(a[j].OccupancyHist), len(b[j].OccupancyHist))
	}
	var fa, fb [maxOrder + 1]int64
	for i := 0; i < numTotals+levels; i++ {
		for j := range a {
			fa[j], fb[j] = a[j].total(i), b[j].total(i)
		}
		if Diff(fa[:len(a)]...) != Diff(fb[:len(b)]...) {
			return false
		}
	}
	return true
}

// numTotals counts the additive totals of a Counters before its
// occupancy histogram.
const numTotals = 4 + NumReasons + 2*isa.NumUnits

// total returns c's i-th additive total: Issued, Cycles, Slots,
// Branches, the stall slots by reason, each unit's ops and busy
// cycles, then occupancy level i-numTotals (zero past the recorded
// range).
func (c *Counters) total(i int) int64 {
	switch {
	case i == 0:
		return c.Issued
	case i == 1:
		return c.Cycles
	case i == 2:
		return c.Slots
	case i == 3:
		return c.Branches
	case i < 4+NumReasons:
		return c.Stalls[i-4]
	case i < numTotals:
		fu := &c.FU[(i-4-NumReasons)/2]
		if (i-4-NumReasons)%2 == 0 {
			return fu.Ops
		}
		return fu.Busy
	}
	return histAt(c, i-numTotals)
}

// histAt reads an occupancy-histogram level, treating levels beyond
// the recorded range as zero (histograms grow only as levels occur).
func histAt(c *Counters, level int) int64 {
	if level < len(c.OccupancyHist) {
		return c.OccupancyHist[level]
	}
	return 0
}
