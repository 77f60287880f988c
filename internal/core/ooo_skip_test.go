package core

import (
	"errors"
	"reflect"
	"testing"

	"mfup/internal/bus"
	"mfup/internal/events"
	"mfup/internal/faultinject"
	"mfup/internal/loops"
	"mfup/internal/probe"
	"mfup/internal/simerr"
)

// oooOutcome runs a fresh out-of-order machine over the trace of
// kernel lfk, with a probe attached (the scan then steps through every
// cycle) or not (it jumps over idle cycles), and with an event recorder
// or not, and returns its result, its *SimError, if any, and the runs
// recorded.
func oooOutcome(t *testing.T, cfg Config, lfk int, lim Limits, probed, recorded bool) (Result, *simerr.SimError, []events.Run) {
	t.Helper()
	k, err := loops.Get(lfk)
	if err != nil {
		t.Fatal(err)
	}
	m := must(NewMultiIssueOOO(cfg))
	if probed {
		m.SetProbe(new(probe.Counters))
	}
	var rec *events.Recorder
	if recorded {
		// Large enough that no run drops an event: the comparison
		// covers every one.
		rec = events.NewRecorder(1 << 21)
		m.SetRecorder(rec)
	}
	r, err := m.RunChecked(k.SharedTrace(), lim)
	var runs []events.Run
	if rec != nil {
		runs = rec.Runs()
		if rec.Dropped() > 0 {
			t.Fatalf("%s on LFK %d: %d events dropped", m.Name(), lfk, rec.Dropped())
		}
	}
	if err == nil {
		return r, nil, runs
	}
	var se *simerr.SimError
	if !errors.As(err, &se) {
		t.Fatalf("%s on LFK %d: %v is not a *SimError", m.Name(), lfk, err)
	}
	return r, se, runs
}

// TestOOOSkippingMatchesStepping holds the next-event scan to the
// stepping one: across widths, interconnects, latencies and kernels,
// under cycle budgets, stall watchdogs and injected faults, the
// out-of-order machine without a probe, which jumps over idle cycles,
// returns the same Result and the same *SimError (kind, cycle,
// instruction, message, in-flight snapshot) as one with a probe, which
// visits every cycle. A recorder-only run jumps too, and records the
// same events as a run that also has a probe.
func TestOOOSkippingMatchesStepping(t *testing.T) {
	var cfgs []Config
	for _, base := range []Config{M11BR5, M5BR2, M11BR5.WithMemBanks(2)} {
		for _, w := range []int{1, 2, 4, 8} {
			for _, k := range []bus.Kind{bus.BusN, bus.Bus1, bus.XBar} {
				cfgs = append(cfgs, base.WithIssue(w, k))
			}
		}
	}
	cfgs = append(cfgs, M11BR2.WithIssue(3, bus.BusN).WithPerfectBranches())
	lims := []Limits{
		{},
		{MaxCycles: 300},
		{MaxCycles: 4000},
		{StallCycles: 4},
		{StallCycles: 9, MaxCycles: 2500},
	}
	kernels := []int{1, 5, 6, 13, 14}
	compare := func(t *testing.T, cfg Config, lfk int, lim Limits) (failed bool) {
		t.Helper()
		sr, se, _ := oooOutcome(t, cfg, lfk, lim, false, false)
		rr, re, rruns := oooOutcome(t, cfg, lfk, lim, false, true)
		or, oe, oruns := oooOutcome(t, cfg, lfk, lim, true, true)
		if sr != or || !reflect.DeepEqual(se, oe) {
			t.Errorf("%s %+v on LFK %d:\n skipping %+v, %+v\n stepping %+v, %+v", cfg.Name(), lim, lfk, sr, se, or, oe)
		}
		if rr != or || !reflect.DeepEqual(re, oe) || !reflect.DeepEqual(rruns, oruns) {
			t.Errorf("%s %+v on LFK %d, recorded:\n skipping %+v, %+v\n stepping %+v, %+v\n (events equal: %v)",
				cfg.Name(), lim, lfk, rr, re, or, oe, reflect.DeepEqual(rruns, oruns))
		}
		return se != nil
	}
	failures := 0
	for _, cfg := range cfgs {
		for _, lfk := range kernels {
			for _, lim := range lims {
				if compare(t, cfg, lfk, lim) {
					failures++
				}
			}
		}
	}
	// The limits must bite often enough for the comparison to mean
	// something: every budget and watchdog row fails on some machines.
	if min := len(cfgs) * len(kernels); failures < min {
		t.Errorf("only %d runs hit a limit, want at least %d", failures, min)
	}

	for _, spec := range []string{"sim:err:at=40", "sim:err:at=777", "sim:stall:at=60"} {
		t.Run(spec, func(t *testing.T) {
			plan, err := faultinject.ParsePlan(spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			faultinject.Activate(faultinject.New(plan))
			defer faultinject.Deactivate()
			for _, cfg := range []Config{M11BR5.WithIssue(1, bus.BusN), M11BR5.WithIssue(4, bus.Bus1), M5BR2.WithIssue(8, bus.XBar)} {
				for _, lfk := range []int{1, 6, 13} {
					if !compare(t, cfg, lfk, Limits{StallCycles: 8}) {
						t.Errorf("%s on LFK %d: %s did not fire", cfg.Name(), lfk, spec)
					}
				}
			}
		})
	}
}
