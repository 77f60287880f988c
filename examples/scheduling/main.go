// Scheduling demonstrates the §6 observation that software code
// scheduling is one route to reducing issue-stage blockage: it runs
// every Livermore kernel through the static list scheduler
// (mfup.ScheduleProgram) and compares issue rates on the single-issue
// CRAY-like machine before and after — and then shows that an RUU
// machine, which resolves the same dependences in hardware, leaves
// much less for the scheduler to claim.
//
// Run with:
//
//	go run ./examples/scheduling
package main

import (
	"fmt"
	"log"

	"mfup"
)

func main() {
	cfg := mfup.M11BR5
	cray := must(mfup.NewBasic(mfup.CRAYLike, cfg))
	ruu := must(mfup.NewRUU(cfg.WithIssue(2, mfup.BusN).WithRUU(40)))

	fmt.Printf("%-38s %10s %10s %7s %12s %12s\n",
		"kernel", "cray", "cray+sched", "gain", "ruu", "ruu+sched")
	for _, k := range mfup.Kernels() {
		base := must(cray.RunChecked(k.SharedTrace(), mfup.SimLimits{})).IssueRate()

		scheduled := mfup.ScheduleProgram(k.Program(), cfg)
		m := k.NewMachine()
		tr, err := mfup.TraceProgram(m, scheduled)
		if err != nil {
			log.Fatalf("%s: %v", k, err)
		}
		// The scheduler must not have changed the computation.
		if err := k.Validate(m); err != nil {
			log.Fatalf("%s: scheduled program wrong: %v", k, err)
		}
		after := must(cray.RunChecked(tr, mfup.SimLimits{})).IssueRate()

		ruuBase := must(ruu.RunChecked(k.SharedTrace(), mfup.SimLimits{})).IssueRate()
		ruuAfter := must(ruu.RunChecked(tr, mfup.SimLimits{})).IssueRate()

		fmt.Printf("%-38s %10.3f %10.3f %+6.1f%% %12.3f %12.3f\n",
			k, base, after, 100*(after-base)/base, ruuBase, ruuAfter)
	}
	fmt.Println("\nHardware dependency resolution (RUU) and software scheduling chase")
	fmt.Println("the same blockages; the RUU columns move far less because the")
	fmt.Println("hardware already tolerates the latencies the scheduler hides.")
}

// must exits on a machine construction or run error.
func must[T any](v T, err error) T {
	if err != nil {
		log.Fatal(err)
	}
	return v
}
