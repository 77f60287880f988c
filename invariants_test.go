package mfup_test

import (
	"context"
	"testing"

	"mfup"
	"mfup/internal/bus"
	"mfup/internal/runner"
)

// invariantTask couples a machine constructor with the most
// instructions it may legally issue per cycle.
type invariantTask struct {
	name  string
	width float64
	mk    func(cfg mfup.Config) mfup.Machine
}

// invariantTasks covers every machine model. The multiple-issue
// machines run with two issue units, so their issue rate may reach —
// but never pass — 2.0.
func invariantTasks() []invariantTask {
	wide := func(cfg mfup.Config) mfup.Config { return cfg.WithIssue(2, bus.BusN) }
	return []invariantTask{
		{"Simple", 1, func(cfg mfup.Config) mfup.Machine { return must(mfup.NewBasic(mfup.Simple, cfg)) }},
		{"SerialMemory", 1, func(cfg mfup.Config) mfup.Machine { return must(mfup.NewBasic(mfup.SerialMemory, cfg)) }},
		{"NonSegmented", 1, func(cfg mfup.Config) mfup.Machine { return must(mfup.NewBasic(mfup.NonSegmented, cfg)) }},
		{"CRAYLike", 1, func(cfg mfup.Config) mfup.Machine { return must(mfup.NewBasic(mfup.CRAYLike, cfg)) }},
		{"Scoreboard", 1, func(cfg mfup.Config) mfup.Machine { return must(mfup.NewScoreboard(cfg)) }},
		{"Tomasulo", 1, func(cfg mfup.Config) mfup.Machine { return must(mfup.NewTomasulo(cfg)) }},
		{"MultiIssue", 2, func(cfg mfup.Config) mfup.Machine { return must(mfup.NewMultiIssue(wide(cfg))) }},
		{"MultiIssueOOO", 2, func(cfg mfup.Config) mfup.Machine { return must(mfup.NewMultiIssueOOO(wide(cfg))) }},
		{"RUU", 2, func(cfg mfup.Config) mfup.Machine { return must(mfup.NewRUU(wide(cfg).WithRUU(20))) }},
		{"Vector", 1, func(cfg mfup.Config) mfup.Machine { return must(mfup.NewVector(cfg)) }},
	}
}

// TestCrossModelInvariants checks, for every machine model on every
// scalar loop under every paper configuration:
//
//   - every run terminates under the production default limits,
//   - cycles and instructions are positive,
//   - the issue rate never exceeds the machine's issue width,
//   - the Simple machine is never faster than the CRAY-like machine
//     (each relaxation in §3 only removes stalls).
//
// The grid runs through the parallel runner with several workers, so
// `go test -race` exercises the machines' data-sharing discipline.
func TestCrossModelInvariants(t *testing.T) {
	var traces []*mfup.Trace
	for _, k := range mfup.KernelsByClass(mfup.Scalar) {
		traces = append(traces, k.SharedTrace())
	}
	models := invariantTasks()

	for _, cfg := range mfup.BaseConfigs() {
		var tasks []runner.Task
		for _, im := range models {
			mk := im.mk
			tasks = append(tasks, runner.Task{
				New:    func() mfup.Machine { return mk(cfg) },
				Traces: traces,
			})
		}
		out, _, errs := runner.RunCheckedStats(context.Background(),
			runner.Options{Parallel: 8, Limits: mfup.DefaultSimLimits()}, tasks)
		for _, e := range errs {
			t.Errorf("%s: cell (%d,%d) failed: %v", cfg.Name(), e.Task, e.Trace, e)
		}
		if len(errs) > 0 {
			continue
		}

		const eps = 1e-9
		for i, im := range models {
			for j, tr := range traces {
				r := out[i][j]
				if r.Cycles <= 0 || r.Instructions <= 0 {
					t.Errorf("%s/%s on %q: non-positive result %+v", cfg.Name(), im.name, tr.Name, r)
				}
				if rate := r.IssueRate(); rate > im.width+eps {
					t.Errorf("%s/%s on %q: issue rate %.4f exceeds width %.0f",
						cfg.Name(), im.name, tr.Name, rate, im.width)
				}
			}
		}

		// Simple (fully serial) can never beat CRAY-like (fully
		// pipelined, overlapped): on every trace it takes at least as
		// many cycles.
		simple, cray := out[0], out[3]
		for j, tr := range traces {
			if simple[j].Cycles < cray[j].Cycles {
				t.Errorf("%s on %q: Simple (%d cycles) beat CRAY-like (%d cycles)",
					cfg.Name(), tr.Name, simple[j].Cycles, cray[j].Cycles)
			}
		}
	}
}
