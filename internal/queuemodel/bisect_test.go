package queuemodel

import (
	"math"
	"math/rand"
	"testing"

	"mfup/internal/core"
	"mfup/internal/loops"
	"mfup/internal/machdef"
)

// bisect64 is windowRate's bisection without its early exit: all 64
// steps, always. steps is how many ran before the midpoint first
// rounded to an end, which windowRate stops at.
func bisect64(centers []Center, saturation, n float64) (rate float64, steps int) {
	hi := saturation * (1 - 1e-9)
	if residency(centers, hi)*hi <= n {
		return saturation, 0
	}
	lo := 0.0
	steps = 64
	for i := 0; i < 64; i++ {
		mid := (lo + hi) / 2
		if steps == 64 && (mid == lo || mid == hi) {
			steps = i
		}
		if residency(centers, mid)*mid > n {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo, steps
}

// experimentsGrid is the 1728 combinations of EXPERIMENTS.md's
// design-space sweep, uncanonicalized.
func experimentsGrid() []machdef.Spec {
	var specs []machdef.Spec
	for _, kind := range []string{"multi", "ooo", "ruu"} {
		for _, width := range []int{1, 2, 3, 4, 6, 8} {
			for _, bus := range []string{"nbus", "1bus"} {
				for _, mem := range []int{5, 11, 20} {
					for _, br := range []int{2, 5} {
						for _, banks := range []int{0, 4} {
							for _, muls := range []int{1, 2} {
								for _, ruu := range []int{25, 50} {
									specs = append(specs, machdef.Spec{
										Kind: kind, Width: width, Bus: bus, Mem: mem, Br: br,
										MemBanks: banks, FUCount: map[string]int{"FloatMul": muls}, RUU: ruu,
									})
								}
							}
						}
					}
				}
			}
		}
	}
	return specs
}

// randomSpecs draws n seeded machine definitions over every scalar
// kind and knob; some are invalid, and Predict refuses those.
func randomSpecs(seed int64, n int) []machdef.Spec {
	rng := rand.New(rand.NewSource(seed))
	kinds := []string{"simple", "serialmem", "nonseg", "cray", "scoreboard", "tomasulo", "multi", "ooo", "ruu"}
	specs := make([]machdef.Spec, n)
	for i := range specs {
		s := machdef.Spec{
			Kind: kinds[rng.Intn(len(kinds))],
			Mem:  1 + rng.Intn(40), Br: 1 + rng.Intn(12),
			Stations:        1 + rng.Intn(8),
			MemBanks:        []int{0, 0, 2, 4, 16}[rng.Intn(5)],
			PerfectBranches: rng.Intn(4) == 0,
		}
		if machdef.MultiIssue(s.Kind) {
			s.Width = 1 + rng.Intn(16)
			s.Bus = []string{"nbus", "1bus", "xbar"}[rng.Intn(3)]
			if s.Bus == "xbar" {
				s.Buses = rng.Intn(s.Width + 1)
			}
			s.RUU = s.Width + rng.Intn(120)
		}
		if rng.Intn(2) == 0 {
			s.FULat = map[string]int{"FloatAdd": 1 + rng.Intn(12), "FloatMul": 1 + rng.Intn(14)}
		}
		if rng.Intn(2) == 0 {
			s.FUCount = map[string]int{"FloatMul": 1 + rng.Intn(3), "Memory": 1 + rng.Intn(3)}
		}
		specs[i] = s
	}
	return specs
}

// TestWindowRateStopsExactly checks the bisection's early exit: on the
// EXPERIMENTS grid and on seeded random definitions, over the sweep's
// mix at scale 100000 and the paper-length mixes, every rate Predict
// gives is bit for bit the rate of all 64 steps.
func TestWindowRateStopsExactly(t *testing.T) {
	scaled := core.ScaleKernels(loops.ByClass(loops.Scalar), 100000)
	mixes := []struct {
		name string
		w    Workload
	}{
		{"scalar@100000", WorkloadOf(scaled.Traces())},
		{"scalar", workload(t)},
		{"all", WorkloadOf(core.ScaleKernels(loops.All(), 0).Traces())},
	}
	sets := []struct {
		name  string
		specs []machdef.Spec
	}{
		{"experiments", experimentsGrid()},
		{"random", randomSpecs(1, 2000)},
	}
	for _, mix := range mixes {
		for _, set := range sets {
			var priced, windowed, steps, most int
			for _, spec := range set.specs {
				est, err := Predict(spec, mix.w)
				if err != nil {
					continue
				}
				priced++
				s, err := machdef.Canonicalize(spec)
				if err != nil {
					t.Fatal(err)
				}
				want := est.Saturation
				if n := window(s, mix.w); n > 0 {
					var k int
					want, k = bisect64(est.Centers, est.Saturation, n)
					if k > 0 {
						windowed++
						steps += k
						most = max(most, k)
					}
				}
				if math.Float64bits(est.Rate) != math.Float64bits(want) {
					t.Errorf("%s on %s: %s: rate %v, 64 steps give %v", set.name, mix.name, s.Key(), est.Rate, want)
				}
			}
			if priced == 0 || windowed == 0 {
				t.Fatalf("%s on %s: %d priced, %d bisected: the check covers nothing", set.name, mix.name, priced, windowed)
			}
			t.Logf("%s on %s: %d priced, %d bisected in %.1f of 64 steps on average, %d at most",
				set.name, mix.name, priced, windowed, float64(steps)/float64(windowed), most)
		}
	}
}
