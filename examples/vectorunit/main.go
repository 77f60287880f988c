// Vectorunit compares the three ways of running the vectorizable
// loops that the paper's framing implies:
//
//  1. as scalar code on the single-issue CRAY-like machine (what the
//     paper's Table 1 measures),
//  2. as scalar code on the best multiple-issue machine (the RUU with
//     4 units and 100 entries, Table 8's strongest column), and
//  3. as vector code on a CRAY-1-style vector unit with chaining (the
//     extension machine), the execution model §3.2 alludes to.
//
// The comparison metric is total cycles for the same computation
// (issue rate is meaningless across the scalar/vector boundary: one
// vector instruction does up to 64 operations).
//
// Run with:
//
//	go run ./examples/vectorunit
package main

import (
	"fmt"
	"log"

	"mfup"
)

func main() {
	cfg := mfup.M11BR5
	cray := must(mfup.NewBasic(mfup.CRAYLike, cfg))
	ruu := must(mfup.NewRUU(cfg.WithIssue(4, mfup.BusN).WithRUU(100)))
	vec := must(mfup.NewVector(cfg))

	fmt.Printf("%-34s %12s %12s %12s %10s %10s\n",
		"kernel (cycles, M11BR5)", "scalar CRAY", "RUU 4/100", "vector", "vec/cray", "vec/ruu")
	for _, vk := range mfup.VectorKernels() {
		sk, err := mfup.GetKernel(vk.Number)
		if err != nil {
			log.Fatal(err)
		}
		vtr, err := vk.Trace() // validates results bit-exactly
		if err != nil {
			log.Fatal(err)
		}
		c := must(cray.RunChecked(sk.SharedTrace(), mfup.SimLimits{})).Cycles
		r := must(ruu.RunChecked(sk.SharedTrace(), mfup.SimLimits{})).Cycles
		v := must(vec.RunChecked(vtr, mfup.SimLimits{})).Cycles
		fmt.Printf("%-34s %12d %12d %12d %9.1fx %9.1fx\n",
			sk, c, r, v, float64(c)/float64(v), float64(r)/float64(v))
	}

	fmt.Println(`
The elementwise kernels run 4-9x faster in the vector unit than on
the scalar CRAY-like machine and 1-2.5x faster than a 4-wide RUU
superscalar. The reductions are the exception: the inner product's
64-lane partial sums and the band kernel's in-order reduction
serialize, and there the RUU machine wins. This is the trade §3.2
gestures at when it discusses sharing pipelined functional units
between scalar and vector work.`)
}

// must exits on a machine construction or run error.
func must[T any](v T, err error) T {
	if err != nil {
		log.Fatal(err)
	}
	return v
}
