package dse

import (
	"context"
	"testing"

	"mfup/internal/core"
	"mfup/internal/isa"
	"mfup/internal/machdef"
	"mfup/internal/runner"
)

// sweepWork is the simulation work of one sweep, summed from the
// extrapolator's statistics over the runs Run makes.
type sweepWork struct {
	machines    int   // machines simulated (runner.RunDistinct's runs)
	runs        int   // extrapolator runs: one per machine and trace
	engaged     int   // runs closed analytically
	refOps      int64 // ops the reference ladders simulated, fallbacks' included
	fallbackOps int64 // ops of the full runs that fell back
	lfk6Falls   int   // LFK 6 runs that fell back
}

// TestSweepWorkCounts plans the EXPERIMENTS sweep, runs its surviving
// points as Run does, and replays each machine runner.RunDistinct
// simulated, summing what the extrapolator did on every trace. Each
// count fails the test when it moves in its worse direction; a change
// that improves one pins the new value here. It takes about a second,
// and several under the race detector, which changes no count.
func TestSweepWorkCounts(t *testing.T) {
	if raceEnabled {
		t.Skip("a replay of the whole sweep; counted without the race detector")
	}
	s, err := Parse([]byte(experimentsSweep))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := PlanSweep(s)
	if err != nil {
		t.Fatal(err)
	}
	tasks := make([]runner.Task, len(pl.Need))
	for ti, i := range pl.Need {
		tasks[ti] = pointTask(pl.Report.Points[i].Spec, pl.Traces, pl.Virtual, pl.Spec.Extrapolate)
	}
	_, stats, errs := runner.RunDistinct(context.Background(), runner.Options{Parallel: 2}, tasks,
		func(ti int) (machdef.Identity, [isa.NumUnits]int, bool) {
			return pl.Report.Points[pl.Need[ti]].Spec.Family()
		})
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	var w sweepWork
	for ti, st := range stats {
		if st.Shared {
			continue
		}
		w.machines++
		e := tasks[ti].New().(*core.Extrapolator)
		for _, tr := range tasks[ti].Traces {
			if _, err := e.RunChecked(tr, core.Limits{}); err != nil {
				t.Fatal(err)
			}
			s := e.Stats()
			w.runs++
			w.refOps += s.SimulatedOps
			if s.Engaged {
				w.engaged++
				continue
			}
			w.fallbackOps += int64(len(tr.Ops))
			if tr.Name == "lfk06" {
				w.lfk6Falls++
			}
		}
	}
	t.Logf("%+v", w)
	want := sweepWork{machines: 77, runs: 385, engaged: 176, refOps: 541_842, fallbackOps: 7_029_210, lfk6Falls: 1}
	if w.machines > want.machines || w.runs > want.runs || w.engaged < want.engaged ||
		w.refOps > want.refOps || w.fallbackOps > want.fallbackOps || w.lfk6Falls > want.lfk6Falls {
		t.Errorf("sweep work %+v, want no worse than %+v", w, want)
	}
}
