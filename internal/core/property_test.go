package core_test

import (
	"testing"

	"mfup/internal/bus"
	"mfup/internal/core"
	"mfup/internal/limits"
	"mfup/internal/loops"
)

// must returns v, panicking on err: the machines a test builds and the
// runs it makes are expected to succeed.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// rate runs m over kernel k's cached trace.
func rate(m core.Machine, k *loops.Kernel) float64 {
	return must(m.RunChecked(k.SharedTrace(), core.Limits{})).IssueRate()
}

// TestOrganizationOrdering checks the paper's central §3 result on
// every loop and configuration: each step of added overlap — distinct
// units, interleaved memory, segmented units — never hurts.
func TestOrganizationOrdering(t *testing.T) {
	for _, k := range loops.All() {
		for _, cfg := range core.BaseConfigs() {
			var prev float64
			for _, org := range core.Organizations() {
				r := rate(must(core.NewBasic(org, cfg)), k)
				if r < prev-1e-12 {
					t.Errorf("%s %s: %s rate %.4f < previous organization %.4f",
						k, cfg.Name(), org, r, prev)
				}
				prev = r
			}
		}
	}
}

// TestSingleIssueBelowOne: a single issue unit can never exceed one
// instruction per cycle.
func TestSingleIssueBelowOne(t *testing.T) {
	for _, k := range loops.All() {
		for _, org := range core.Organizations() {
			if r := rate(must(core.NewBasic(org, core.M5BR2)), k); r > 1 {
				t.Errorf("%s on %s: issue rate %.3f > 1", k, org, r)
			}
		}
	}
}

// TestFasterMemoryNeverHurts and TestFasterBranchNeverHurts: the
// M/BR parameters only remove cycles.
func TestFasterMemoryNeverHurts(t *testing.T) {
	for _, k := range loops.All() {
		for _, org := range core.Organizations() {
			slow := rate(must(core.NewBasic(org, core.M11BR5)), k)
			fast := rate(must(core.NewBasic(org, core.M5BR5)), k)
			if fast < slow-1e-12 {
				t.Errorf("%s on %s: M5 rate %.4f < M11 rate %.4f", k, org, fast, slow)
			}
		}
	}
}

func TestFasterBranchNeverHurts(t *testing.T) {
	for _, k := range loops.All() {
		for _, org := range core.Organizations() {
			slow := rate(must(core.NewBasic(org, core.M11BR5)), k)
			fast := rate(must(core.NewBasic(org, core.M11BR2)), k)
			if fast < slow-1e-12 {
				t.Errorf("%s on %s: BR2 rate %.4f < BR5 rate %.4f", k, org, fast, slow)
			}
		}
	}
}

// TestMultiIssueOneStationMatchesCRAYLike: with one issue station and
// per-station busses, the §5.1 machine's only extra constraint over
// the CRAY-like machine is its single result bus, so it can be at
// most marginally slower and never faster.
func TestMultiIssueOneStationMatchesCRAYLike(t *testing.T) {
	for _, k := range loops.All() {
		base := rate(must(core.NewBasic(core.CRAYLike, core.M11BR5)), k)
		multi := rate(must(core.NewMultiIssue(core.M11BR5.WithIssue(1, bus.BusN))), k)
		if multi > base+1e-12 {
			t.Errorf("%s: 1-station multi-issue (%.4f) beat the CRAY-like machine (%.4f)", k, multi, base)
		}
		if multi < 0.95*base {
			t.Errorf("%s: 1-station multi-issue (%.4f) much slower than CRAY-like (%.4f)", k, multi, base)
		}
	}
}

// TestMoreStationsHelp: eight in-order stations never lose to one.
func TestMoreStationsHelp(t *testing.T) {
	for _, k := range loops.All() {
		one := rate(must(core.NewMultiIssue(core.M11BR5.WithIssue(1, bus.BusN))), k)
		eight := rate(must(core.NewMultiIssue(core.M11BR5.WithIssue(8, bus.BusN))), k)
		if eight < one-1e-12 {
			t.Errorf("%s: 8 stations (%.4f) worse than 1 (%.4f)", k, eight, one)
		}
	}
}

// TestOOOAtLeastInOrder: on aggregate, out-of-order issue within the
// buffer should not lose to sequential issue. (Per-loop small
// regressions are possible from bus-slot scheduling order; allow a
// 2% slack per loop.)
func TestOOOAtLeastInOrder(t *testing.T) {
	for _, k := range loops.All() {
		for _, n := range []int{2, 4, 8} {
			in := rate(must(core.NewMultiIssue(core.M11BR5.WithIssue(n, bus.BusN))), k)
			ooo := rate(must(core.NewMultiIssueOOO(core.M11BR5.WithIssue(n, bus.BusN))), k)
			if ooo < 0.98*in {
				t.Errorf("%s N=%d: OOO rate %.4f below in-order %.4f", k, n, ooo, in)
			}
		}
	}
}

// TestRUUBeatsCRAYLike: §5.3's headline — dependency resolution with
// a reasonable RUU beats the plain CRAY-like machine on every loop.
func TestRUUBeatsCRAYLike(t *testing.T) {
	for _, k := range loops.All() {
		base := rate(must(core.NewBasic(core.CRAYLike, core.M11BR5)), k)
		r := rate(must(core.NewRUU(core.M11BR5.WithIssue(1, bus.BusN).WithRUU(50))), k)
		if r <= base {
			t.Errorf("%s: RUU (%.4f) did not beat CRAY-like (%.4f)", k, r, base)
		}
	}
}

// TestRUULargelyMonotoneInSize: a bigger RUU helps overall — the
// paper's buffer-storage argument. Strict monotonicity does not hold:
// dispatch is greedy oldest-first, and like any greedy list schedule
// it exhibits small Graham-type anomalies where extra lookahead lets
// a non-critical operation reserve the unit or result-bus slot a
// critical one needed. Observed dips are under 5%; the trend from the
// smallest to the largest RUU must be clearly upward.
func TestRUULargelyMonotoneInSize(t *testing.T) {
	sizes := []int{10, 20, 30, 40, 50, 100}
	for _, k := range loops.All() {
		for _, n := range []int{1, 2, 4} {
			var prev float64
			var first, last float64
			for i, size := range sizes {
				r := rate(must(core.NewRUU(core.M11BR5.WithIssue(n, bus.BusN).WithRUU(size))), k)
				if r < 0.95*prev {
					t.Errorf("%s N=%d: RUU %d rate %.4f dips more than 5%% below %.4f",
						k, n, size, r, prev)
				}
				if i == 0 {
					first = r
				}
				last = r
				prev = r
			}
			if last < first {
				t.Errorf("%s N=%d: RUU 100 rate %.4f below RUU 10 rate %.4f", k, n, last, first)
			}
		}
	}
}

// TestRatesRespectDataflowLimit: no machine may beat the §4 actual
// limit of its own trace and configuration — the limit is an upper
// bound by construction.
func TestRatesRespectDataflowLimit(t *testing.T) {
	for _, k := range loops.All() {
		tr := k.SharedTrace()
		for _, cfg := range core.BaseConfigs() {
			lim := limits.Compute(tr, cfg.Latencies(), limits.Pure).Actual
			machines := []core.Machine{
				must(core.NewBasic(core.CRAYLike, cfg)),
				must(core.NewMultiIssue(cfg.WithIssue(8, bus.BusN))),
				must(core.NewMultiIssueOOO(cfg.WithIssue(8, bus.BusN))),
				must(core.NewRUU(cfg.WithIssue(4, bus.BusN).WithRUU(100))),
			}
			for _, m := range machines {
				if r := rate(m, k); r > lim+1e-9 {
					t.Errorf("%s %s: %s rate %.4f exceeds dataflow limit %.4f",
						k, cfg.Name(), m.Name(), r, lim)
				}
			}
		}
	}
}

// TestXBarMatchesNBus: the paper reports the X-Bar results are
// "essentially the same" as N-Bus; with our station-binding they can
// differ only slightly.
func TestXBarMatchesNBus(t *testing.T) {
	for _, k := range loops.All() {
		for _, n := range []int{2, 4, 8} {
			nb := rate(must(core.NewMultiIssue(core.M11BR5.WithIssue(n, bus.BusN))), k)
			xb := rate(must(core.NewMultiIssue(core.M11BR5.WithIssue(n, bus.XBar))), k)
			if xb < nb-1e-12 {
				t.Errorf("%s N=%d: X-Bar (%.4f) worse than N-Bus (%.4f)", k, n, xb, nb)
			}
			if xb > 1.02*nb {
				t.Errorf("%s N=%d: X-Bar (%.4f) implausibly better than N-Bus (%.4f)", k, n, xb, nb)
			}
		}
	}
}

// TestSerialLimitTighterThanPure: forcing in-order WAW completion can
// only lengthen the critical path.
func TestSerialLimitTighterThanPure(t *testing.T) {
	for _, k := range loops.All() {
		tr := k.SharedTrace()
		for _, cfg := range core.BaseConfigs() {
			pure := limits.Compute(tr, cfg.Latencies(), limits.Pure)
			serial := limits.Compute(tr, cfg.Latencies(), limits.Serial)
			if serial.PseudoDataflow > pure.PseudoDataflow+1e-12 {
				t.Errorf("%s %s: serial limit %.4f above pure %.4f",
					k, cfg.Name(), serial.PseudoDataflow, pure.PseudoDataflow)
			}
		}
	}
}

// TestIssueRatesStableInN: issue rate is a steady-state property of
// the loop body; doubling each kernel's loop length moves its issue
// rate by less than 10% on representative machines. This licenses
// running the suite at reduced lengths (DESIGN.md §2).
func TestIssueRatesStableInN(t *testing.T) {
	double := map[int]int{
		1: 200, 2: 128, 3: 200, 4: 200, 5: 200, 6: 80, 7: 200,
		8: 100, 9: 200, 10: 200, 11: 200, 12: 200, 13: 200, 14: 200,
	}
	machines := []core.Machine{
		must(core.NewBasic(core.CRAYLike, core.M11BR5)),
		must(core.NewRUU(core.M11BR5.WithIssue(2, bus.BusN).WithRUU(30))),
	}
	for _, k := range loops.All() {
		scaled, err := loops.Scaled(k.Number, double[k.Number])
		if err != nil {
			t.Fatalf("Scaled(%d): %v", k.Number, err)
		}
		st := scaled.MustTrace()
		for _, m := range machines {
			base := must(m.RunChecked(k.SharedTrace(), core.Limits{})).IssueRate()
			big := must(m.RunChecked(st, core.Limits{})).IssueRate()
			if rel := (big - base) / base; rel > 0.10 || rel < -0.10 {
				t.Errorf("%s on %s: rate moved %.1f%% when doubling loop length (%.4f -> %.4f)",
					k, m.Name(), 100*rel, base, big)
			}
		}
	}
}
