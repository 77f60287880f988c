// Limitsdemo reproduces the §4 reasoning on two extreme loops:
//
//   - LFK 5 (tri-diagonal elimination), a true recurrence: its
//     pseudo-dataflow limit is set by the floating-point chain
//     through x[i-1], so it barely moves with memory or branch speed.
//   - LFK 12 (first difference), fully independent iterations: its
//     pseudo-dataflow limit is set by branch resolution alone, so it
//     responds strongly to the branch time and not at all to memory.
//
// It also contrasts Pure and Serial WAW treatment: without buffering
// for multiple register instances, the limit collapses toward one
// instruction per cycle — the paper's argument for why dependency
// resolution hardware must rename.
//
// Run with:
//
//	go run ./examples/limitsdemo
package main

import (
	"fmt"
	"log"

	"mfup"
)

func main() {
	rec := mfup.MustKernel(5)  // recurrence
	ind := mfup.MustKernel(12) // independent iterations

	fmt.Println("Pure dataflow limits (instructions/cycle):")
	fmt.Printf("%-34s", "")
	for _, cfg := range mfup.BaseConfigs() {
		fmt.Printf("%9s", cfg.Name())
	}
	fmt.Println()
	for _, k := range []*mfup.Kernel{rec, ind} {
		fmt.Printf("%-34s", k)
		for _, cfg := range mfup.BaseConfigs() {
			l := mfup.ComputeLimits(k.SharedTrace(), cfg, mfup.Pure)
			fmt.Printf("%9.3f", l.Actual)
		}
		fmt.Println()
	}

	fmt.Println("\nSerial (in-order WAW) limits:")
	for _, k := range []*mfup.Kernel{rec, ind} {
		fmt.Printf("%-34s", k)
		for _, cfg := range mfup.BaseConfigs() {
			l := mfup.ComputeLimits(k.SharedTrace(), cfg, mfup.Serial)
			fmt.Printf("%9.3f", l.Actual)
		}
		fmt.Println()
	}

	fmt.Println("\nHow close do real machines come? (M11BR5)")
	cfg := mfup.M11BR5
	for _, k := range []*mfup.Kernel{rec, ind} {
		tr := k.SharedTrace()
		lim := mfup.ComputeLimits(tr, cfg, mfup.Pure).Actual
		crayM := must(mfup.NewBasic(mfup.CRAYLike, cfg))
		ruuM := must(mfup.NewRUU(cfg.WithIssue(4, mfup.BusN).WithRUU(100)))
		cray := must(crayM.RunChecked(tr, mfup.SimLimits{})).IssueRate()
		ruu := must(ruuM.RunChecked(tr, mfup.SimLimits{})).IssueRate()
		fmt.Printf("%-34s limit %.3f   CRAY-like %.3f (%2.0f%%)   RUU4/100 %.3f (%2.0f%%)\n",
			k, lim, cray, 100*cray/lim, ruu, 100*ruu/lim)
	}
}

// must exits on a machine construction or run error.
func must[T any](v T, err error) T {
	if err != nil {
		log.Fatal(err)
	}
	return v
}
