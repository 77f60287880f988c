package dse

import (
	"context"
	"testing"
)

// experimentsSweep is the "Design-space sweep" document of
// EXPERIMENTS.md: 1728 grid points, 1152 distinct machines, at scale
// 100000 with extrapolation on.
const experimentsSweep = `{
	"base": {"kind": "ooo", "mem": 11, "br": 5},
	"axes": {
		"kind": ["multi", "ooo", "ruu"],
		"width": [1, 2, 3, 4, 6, 8],
		"bus": ["nbus", "1bus"],
		"mem": [5, 11, 20],
		"br": [2, 5],
		"membanks": [0, 4],
		"fucount.FloatMul": [1, 2],
		"ruu": [25, 50]
	},
	"scale": 100000, "extrapolate": true,
	"prune": {"margin": 0.15, "keep": 32},
	"maxpoints": 10000
}`

var planSink *Planned

// BenchmarkPlanSweep times the front half of the EXPERIMENTS sweep:
// expansion and keying of the grid, the kernel builds at scale 100000
// with their virtual-window measurement, pricing, and pruning. It is
// all a re-run against a complete journal does, since such a run
// simulates nothing.
func BenchmarkPlanSweep(b *testing.B) {
	s, err := Parse([]byte(experimentsSweep))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pl, err := PlanSweep(s)
		if err != nil {
			b.Fatal(err)
		}
		planSink = pl
	}
}

var reportSink *Report

// BenchmarkRunSweep times a cold run of the EXPERIMENTS sweep with no
// journal: planning, then a rate for each of the 123 points the model
// keeps, from the runs of the 77 machines whose answers no other
// point's run gives (runner.RunDistinct).
func BenchmarkRunSweep(b *testing.B) {
	s, err := Parse([]byte(experimentsSweep))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		r, err := Run(context.Background(), s, Options{})
		if err != nil {
			b.Fatal(err)
		}
		reportSink = r
	}
}
