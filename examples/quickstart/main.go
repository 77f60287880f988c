// Quickstart: run one Livermore loop across the paper's four basic
// machine organizations and all four memory/branch variations, then
// show what dependency resolution (the RUU machine) buys on top.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"mfup"
)

func main() {
	k := mfup.MustKernel(1) // LFK 1, the hydro fragment
	tr := k.SharedTrace()
	fmt.Printf("%s: %d dynamic instructions\n\n", k, tr.Len())

	// The §3 progression: each row adds execution overlap.
	fmt.Printf("%-14s", "")
	for _, cfg := range mfup.BaseConfigs() {
		fmt.Printf("%9s", cfg.Name())
	}
	fmt.Println()
	for _, org := range mfup.Organizations() {
		fmt.Printf("%-14s", org)
		for _, cfg := range mfup.BaseConfigs() {
			m := must(mfup.NewBasic(org, cfg))
			r := must(m.RunChecked(tr, mfup.SimLimits{}))
			fmt.Printf("%9.3f", r.IssueRate())
		}
		fmt.Println()
	}

	// What the loop could do in principle (§4), and what an RUU
	// machine actually achieves (§5.3).
	fmt.Println()
	for _, cfg := range mfup.BaseConfigs() {
		lim := mfup.ComputeLimits(tr, cfg, mfup.Pure)
		m := must(mfup.NewRUU(cfg.WithIssue(4, mfup.BusN).WithRUU(50)))
		ruu := must(m.RunChecked(tr, mfup.SimLimits{}))
		fmt.Printf("%s: dataflow limit %.3f, RUU(4 units, 50 entries) achieves %.3f (%.0f%%)\n",
			cfg.Name(), lim.Actual, ruu.IssueRate(), 100*ruu.IssueRate()/lim.Actual)
	}
}

// must exits on a machine construction or run error.
func must[T any](v T, err error) T {
	if err != nil {
		log.Fatal(err)
	}
	return v
}
