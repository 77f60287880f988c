package dse

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"slices"
	"sync"
	"testing"

	"mfup/internal/core"
)

// resetWorkloads empties the package's workload memo, so the next plan
// or point resolves its workload from nothing.
func resetWorkloads() { workloads = core.WorkloadMemo{} }

// TestPlansReuseWorkload checks the sweep's workload memo: two plans
// of the EXPERIMENTS sweep at once share one build, a later plan and a
// routed run of one of its points reuse its kernels, a plan at another
// scale in between replaces them, and every report, and the point's
// rate, is byte-identical to one resolved with an empty memo.
func TestPlansReuseWorkload(t *testing.T) {
	s := mustParse(t, experimentsSweep)
	other := s
	other.Scale = 50000
	plan := func(s SweepSpec) (*Planned, []byte, error) {
		pl, err := PlanSweep(s)
		if err != nil {
			return nil, nil, err
		}
		b, err := json.Marshal(pl.Report)
		return pl, b, err
	}
	mustPlan := func(s SweepSpec) (*Planned, []byte) {
		t.Helper()
		pl, b, err := plan(s)
		if err != nil {
			t.Fatal(err)
		}
		return pl, b
	}

	resetWorkloads()
	_, wantOther := mustPlan(other)
	resetWorkloads()
	var pls [2]*Planned
	var reps [2][]byte
	var wg sync.WaitGroup
	for i := range pls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if pls[i], reps[i], err = plan(s); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	first, want := pls[0], reps[0]
	if !slices.Equal(pls[1].Traces, first.Traces) {
		t.Error("two plans of the sweep at once built its kernels twice")
	}
	if !bytes.Equal(reps[1], want) {
		t.Error("two plans of the sweep at once made different reports")
	}

	again, got := mustPlan(s)
	if !slices.Equal(again.Traces, first.Traces) {
		t.Error("a later plan of the sweep rebuilt its kernels")
	}
	if !bytes.Equal(got, want) {
		t.Error("a later plan's report differs from the first's")
	}

	p := first.Report.Points[first.Need[0]]
	pt := PointSpec{Spec: p.Spec, Loops: s.Loops, Scale: s.Scale, Extrapolate: s.Extrapolate}
	if pt.Key() != p.Key {
		t.Fatalf("point key %s, sweep key %s", pt.Key(), p.Key)
	}
	rate, err := pt.Run(context.Background(), core.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(workloadFor(s).Traces(), first.Traces) {
		t.Error("a routed point of the sweep rebuilt its kernels")
	}

	mid, got := mustPlan(other)
	if slices.Equal(mid.Traces, first.Traces) {
		t.Error("a plan at another scale reused the first plan's kernels")
	}
	if !bytes.Equal(got, wantOther) {
		t.Error("a plan at another scale differs from one planned with an empty memo")
	}
	third, got := mustPlan(s)
	if slices.Equal(third.Traces, first.Traces) {
		t.Error("a plan after one at another scale reused a replaced entry")
	}
	if !bytes.Equal(got, want) {
		t.Error("a plan after one at another scale differs from one planned with an empty memo")
	}

	resetWorkloads()
	fresh, err := pt.Run(context.Background(), core.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(fresh) != math.Float64bits(rate) {
		t.Errorf("point rate %v with a warm memo, %v with an empty one", rate, fresh)
	}
}
