package dse

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"mfup/internal/core"
	"mfup/internal/faultinject"
	"mfup/internal/machdef"
	"mfup/internal/runner"
)

// twinSweep is a grid in which each kind's width-1 nbus, 1bus and
// one-bus crossbar points are one machine: 5 of its 16 surviving
// points are twins of another.
const twinSweep = `{
	"base": {"kind": "ooo", "mem": 5, "br": 2},
	"axes": {
		"kind": ["multi", "ooo", "ruu"],
		"width": [1, 2],
		"bus": ["nbus", "1bus", "xbar"]
	}
}`

// TestTwinPointsShareRuns fails if a sweep quietly stops sharing runs:
// run one per distinct machine identity, the grid's 16 points take 11
// simulations, and Run's report is byte-identical to one in which
// every point simulates. Fault injection turns sharing off, so an
// injector with an empty plan gives the unshared reference.
func TestTwinPointsShareRuns(t *testing.T) {
	s := mustParse(t, twinSweep)
	pl, err := PlanSweep(s)
	if err != nil {
		t.Fatal(err)
	}
	var tasks []runner.Task
	for _, i := range pl.Need {
		tasks = append(tasks, pointTask(pl.Report.Points[i].Spec, pl.Traces, pl.Virtual, false))
	}
	_, stats, errs := runner.RunDistinct(context.Background(), runner.Options{Parallel: 2}, tasks,
		func(ti int) (machdef.Identity, bool) { return pl.Report.Points[pl.Need[ti]].Spec.Identity() })
	shared := 0
	for _, st := range stats {
		if st.Shared {
			shared++
		}
	}
	if len(tasks) != 16 || shared != 5 || len(errs) != 0 {
		t.Errorf("%d of %d points shared a run (want 5 of 16), %d errors", shared, len(tasks), len(errs))
	}

	report := func() []byte {
		t.Helper()
		r, err := Run(context.Background(), s, Options{Parallel: 2})
		if err != nil {
			t.Fatal(err)
		}
		if r.Simulated != 16 || r.Failed != 0 {
			t.Errorf("simulated %d, failed %d, want 16 and 0", r.Simulated, r.Failed)
		}
		b, err := r.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	got := report()
	faultinject.Activate(faultinject.New(&faultinject.Plan{}))
	defer faultinject.Deactivate()
	if want := report(); !bytes.Equal(got, want) {
		t.Errorf("shared report differs from the unshared one:\n%s\nunshared:\n%s", got, want)
	}
}

// TestRunRefusesInvalidLimits: limits the runner cannot honor are a
// configuration error returned by Run, not a failure of some point.
func TestRunRefusesInvalidLimits(t *testing.T) {
	for _, lim := range []core.Limits{{MaxCycles: -1}, {StallCycles: -1}} {
		_, err := Run(context.Background(), mustParse(t, twinSweep), Options{Limits: lim})
		var oe *runner.OptionError
		if !errors.As(err, &oe) {
			t.Errorf("limits %+v: error %v, want a *runner.OptionError", lim, err)
		}
	}
}
