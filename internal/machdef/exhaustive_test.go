//go:build exhaustive

package machdef

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mfup/internal/core"
	"mfup/internal/loops"
	"mfup/internal/probe"
	"mfup/internal/trace"
)

// The exhaustive checks run kernels extrapolated and in full on every
// machine of the EXPERIMENTS.md design-space grid, and LFK 6 also on
// seeded random definitions, and want identical results and counters
// on every run. They take a few minutes on two CPUs, so they sit
// behind a build tag:
//
//	go test -tags exhaustive -run Exhaustive ./internal/machdef/

// experimentsGrid returns the 1152 distinct machines of the
// EXPERIMENTS.md "Design-space sweep" grid.
func experimentsGrid(t *testing.T) []Spec {
	seen := map[string]bool{}
	var specs []Spec
	for _, kind := range []string{"multi", "ooo", "ruu"} {
		for _, width := range []int{1, 2, 3, 4, 6, 8} {
			for _, bus := range []string{"nbus", "1bus"} {
				for _, mem := range []int{5, 11, 20} {
					for _, br := range []int{2, 5} {
						for _, banks := range []int{0, 4} {
							for _, muls := range []int{1, 2} {
								for _, ruu := range []int{25, 50} {
									s, err := Canonicalize(Spec{
										Kind: kind, Width: width, Bus: bus, Mem: mem, Br: br,
										MemBanks: banks, FUCount: map[string]int{"FloatMul": muls}, RUU: ruu,
									})
									if err != nil {
										t.Fatal(err)
									}
									if k := s.Key(); !seen[k] {
										seen[k] = true
										specs = append(specs, s)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	if len(specs) != 1152 {
		t.Fatalf("grid has %d distinct machines, want 1152", len(specs))
	}
	return specs
}

// checkExtrapolated runs tr extrapolated and in full on a fresh
// machine of s and reports any difference, and whether the engine
// engaged.
func checkExtrapolated(t *testing.T, s Spec, tr *trace.Trace) bool {
	run := func(m core.Machine) (core.Result, *probe.Counters) {
		c := new(probe.Counters)
		m.SetProbe(c)
		r, err := m.RunChecked(tr, core.DefaultLimits())
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		return r, c
	}
	full, err := s.New()
	if err != nil {
		t.Fatal(err)
	}
	inner, err := s.New()
	if err != nil {
		t.Fatal(err)
	}
	want, wantC := run(full)
	e := core.Extrapolate(inner)
	got, gotC := run(e)
	wantC.OccupancyHist = trimZeros(wantC.OccupancyHist)
	gotC.OccupancyHist = trimZeros(gotC.OccupancyHist)
	if got != want || !reflect.DeepEqual(gotC, wantC) {
		t.Errorf("%+v on %s (%d ops): extrapolated %+v, full %+v (stats %+v)\n counters %v\n     full %v",
			s, tr.Name, len(tr.Ops), got, want, e.Stats(), gotC, wantC)
	}
	return e.Stats().Engaged
}

// trimZeros drops an occupancy histogram's trailing zero levels, which
// a reader treats as never recorded.
func trimZeros(h []int64) []int64 {
	for len(h) > 0 && h[len(h)-1] == 0 {
		h = h[:len(h)-1]
	}
	return h
}

// checkAll runs checkExtrapolated on every spec in parallel and
// returns how many runs the engine closed.
func checkAll(t *testing.T, specs []Spec, tr *trace.Trace) int {
	res := make(chan bool, len(specs))
	t.Run(fmt.Sprint(len(tr.Ops)), func(t *testing.T) {
		for _, s := range specs {
			s := s
			t.Run("", func(t *testing.T) {
				t.Parallel()
				res <- checkExtrapolated(t, s, tr)
			})
		}
	})
	closed := 0
	for range specs {
		if <-res {
			closed++
		}
	}
	return closed
}

// TestExhaustiveNestGrid checks the grid on LFK 6 at 200 and 256.
func TestExhaustiveNestGrid(t *testing.T) {
	specs := experimentsGrid(t)
	for _, n := range []int{200, 256} {
		k, err := loops.Scaled(6, n)
		if err != nil {
			t.Fatal(err)
		}
		closed := checkAll(t, specs, k.SharedTrace())
		t.Logf("LFK 6 at %d: %d of %d grid machines closed", n, closed, len(specs))
	}
}

// TestExhaustivePeriodGrid checks the grid on every kernel whose
// largest build has a Period the ladder can sample (core.CanExtrapolate:
// LFK 4 has too few iterations, LFK 14 fails the tail identity check):
// 8 kernels, 9,216 runs.
func TestExhaustivePeriodGrid(t *testing.T) {
	specs := experimentsGrid(t)
	kernels := 0
	for n := 1; n <= 14; n++ {
		k, _, err := loops.ForScale(n, 100000)
		if err != nil {
			t.Fatal(err)
		}
		tr := k.SharedTrace()
		if core.CanExtrapolate(tr) != nil {
			continue
		}
		kernels++
		closed := checkAll(t, specs, tr)
		t.Logf("LFK %d at %d: %d of %d grid machines closed", n, k.N, closed, len(specs))
	}
	if kernels != 8 {
		t.Errorf("%d kernels have a Period the ladder can sample at their largest build, want 8", kernels)
	}
}

// TestExhaustiveNestRandom checks seeded random definitions of the nine
// pool kinds — unit latencies and copies, banks, crossbars, perfect
// branches — on LFK 6 at 256.
func TestExhaustiveNestRandom(t *testing.T) {
	const specsPerKind = 67 // 603 definitions
	k, err := loops.Scaled(6, 256)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(25))
	var specs []Spec
	for i := 0; i < specsPerKind; i++ {
		for _, kind := range poolKinds {
			s, err := Canonicalize(randomPoolSpec(rng, kind))
			if err != nil {
				t.Fatal(err)
			}
			specs = append(specs, s)
		}
	}
	closed := checkAll(t, specs, k.SharedTrace())
	t.Logf("LFK 6 at 256: %d of %d random machines closed", closed, len(specs))
}
