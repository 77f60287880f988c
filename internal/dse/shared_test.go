package dse

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"mfup/internal/core"
	"mfup/internal/faultinject"
	"mfup/internal/isa"
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

// copiesSweep crosses memory-unit copies with width and interconnect:
// a width-1 machine never finds its one memory unit busy, so its
// two-copy points take the one-copy runs, as does one 4-wide RUU; the
// other 4-wide machines do find it busy and simulate their own. With
// the width-1 twins, 7 of the 16 points take another's run.
const copiesSweep = `{
	"base": {"kind": "ooo", "mem": 5, "br": 2},
	"axes": {
		"kind": ["multi", "ruu"],
		"width": [1, 4],
		"bus": ["nbus", "1bus"],
		"fucount.Memory": [1, 2]
	}
}`

// TestTwinPointsShareRuns fails if a sweep quietly stops sharing runs:
// run one per distinct machine, and one per family of machines whose
// fewer-copy member never found an added unit busy, each grid takes
// as many simulations as it should, and Run's report is byte-identical
// to one in which every point simulates. Fault injection turns sharing
// off, so an injector with an empty plan gives the unshared reference.
func TestTwinPointsShareRuns(t *testing.T) {
	for _, c := range []struct {
		name           string
		doc            string
		points, shared int
	}{
		{"twins", twinSweep, 16, 5},
		{"copies", copiesSweep, 16, 7},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := mustParse(t, c.doc)
			pl, err := PlanSweep(s)
			if err != nil {
				t.Fatal(err)
			}
			var tasks []runner.Task
			for _, i := range pl.Need {
				tasks = append(tasks, pointTask(pl.Report.Points[i].Spec, pl.Traces, pl.Virtual, false))
			}
			_, stats, errs := runner.RunDistinct(context.Background(), runner.Options{Parallel: 2}, tasks,
				func(ti int) (machdef.Identity, [isa.NumUnits]int, bool) {
					return pl.Report.Points[pl.Need[ti]].Spec.Family()
				})
			shared := 0
			for _, st := range stats {
				if st.Shared {
					shared++
				}
			}
			if len(tasks) != c.points || shared != c.shared || len(errs) != 0 {
				t.Errorf("%d of %d points shared a run (want %d of %d), %d errors", shared, len(tasks), c.shared, c.points, len(errs))
			}

			report := func() []byte {
				t.Helper()
				r, err := Run(context.Background(), s, Options{Parallel: 2})
				if err != nil {
					t.Fatal(err)
				}
				if r.Simulated != c.points || r.Failed != 0 {
					t.Errorf("simulated %d, failed %d, want %d and 0", r.Simulated, r.Failed, c.points)
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
		})
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
