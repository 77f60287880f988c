package dse

import (
	"context"
	"testing"

	"mfup/internal/core"
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
// expansion and keying of the grid, its workload at scale 100000,
// pricing, and pruning. It is all a re-run against a complete journal
// does, since such a run simulates nothing. /cold empties the
// package's workload memo before each plan, so each builds the kernels
// and measures their virtual windows; /warm plans after a plan of the
// same sweep, as every plan after a process's first does, and reuses
// that plan's kernels.
func BenchmarkPlanSweep(b *testing.B) {
	s, err := Parse([]byte(experimentsSweep))
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		cold bool
	}{{"cold", true}, {"warm", false}} {
		b.Run(c.name, func(b *testing.B) {
			if _, err := PlanSweep(s); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c.cold {
					resetWorkloads()
				}
				pl, err := PlanSweep(s)
				if err != nil {
					b.Fatal(err)
				}
				planSink = pl
			}
		})
	}
}

var rateSink float64

// BenchmarkPointRun times one routed point of the EXPERIMENTS sweep,
// its first survivor, as a worker runs it (PointSpec.Run) after an
// earlier plan or point of the sweep resolved the workload: the
// machine's runs over the five scalar loops at scale 100000, their
// ladders reusing the reduced traces that earlier runs cached.
func BenchmarkPointRun(b *testing.B) {
	s, err := Parse([]byte(experimentsSweep))
	if err != nil {
		b.Fatal(err)
	}
	pl, err := PlanSweep(s)
	if err != nil {
		b.Fatal(err)
	}
	p := PointSpec{Spec: pl.Report.Points[pl.Need[0]].Spec, Loops: s.Loops, Scale: s.Scale, Extrapolate: s.Extrapolate}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rate, err := p.Run(context.Background(), core.Limits{})
		if err != nil {
			b.Fatal(err)
		}
		rateSink = rate
	}
}

var reportSink *Report

// BenchmarkRunSweep times a cold run of the EXPERIMENTS sweep with no
// journal: planning, then a rate for each of the 123 points the model
// keeps, from the runs of the 77 machines whose answers no other
// point's run gives (runner.RunDistinct). Only the first iteration
// builds the workload; the others reuse its kernels (the package's
// workload memo), with the reduced traces their ladders cached.
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
