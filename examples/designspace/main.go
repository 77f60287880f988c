// Designspace explores the §5 design space the way a processor
// architect would use this library: sweep issue width, result-bus
// organization, and RUU size for a workload class, and find the knee —
// the cheapest configuration within a few percent of the best.
//
// Run with:
//
//	go run ./examples/designspace
package main

import (
	"fmt"
	"log"

	"mfup"
)

type point struct {
	units int
	size  int
	kind  mfup.BusKind
	rate  float64
}

func main() {
	cfg := mfup.M11BR5 // the base CRAY-1 timing
	for _, class := range []mfup.KernelClass{mfup.Scalar, mfup.Vectorizable} {
		kernels := mfup.KernelsByClass(class)
		fmt.Printf("== %s loops, %s ==\n", class, cfg.Name())

		var pts []point
		var best point
		for _, kind := range []mfup.BusKind{mfup.BusN, mfup.Bus1} {
			for _, units := range []int{1, 2, 3, 4} {
				for _, size := range []int{10, 20, 40, 80} {
					m := must(mfup.NewRUU(cfg.WithIssue(units, kind).WithRUU(size)))
					p := point{units: units, size: size, kind: kind, rate: harmonic(m, kernels)}
					pts = append(pts, p)
					if p.rate > best.rate {
						best = p
					}
				}
			}
		}

		fmt.Printf("best: %.3f/cycle with %d issue units, RUU %d, %s\n",
			best.rate, best.units, best.size, best.kind)

		// The knee: cheapest configuration within 5% of the best,
		// cost ordered by RUU size then issue units (buffer storage
		// dominates area in this design space, as §5.3 observes).
		knee := best
		for _, p := range pts {
			if p.rate >= 0.95*best.rate {
				if p.size < knee.size || (p.size == knee.size && p.units < knee.units) {
					knee = p
				}
			}
		}
		fmt.Printf("knee: %.3f/cycle with %d issue units, RUU %d, %s (>= 95%% of best)\n\n",
			knee.rate, knee.units, knee.size, knee.kind)
	}
}

func harmonic(m mfup.Machine, kernels []*mfup.Kernel) float64 {
	var invSum float64
	for _, k := range kernels {
		invSum += 1 / must(m.RunChecked(k.SharedTrace(), mfup.SimLimits{})).IssueRate()
	}
	return float64(len(kernels)) / invSum
}

// must exits on a machine construction or run error.
func must[T any](v T, err error) T {
	if err != nil {
		log.Fatal(err)
	}
	return v
}
