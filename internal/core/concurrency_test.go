package core

import (
	"sync"
	"testing"

	"mfup/internal/bus"
	"mfup/internal/loops"
)

// TestSharedTraceConcurrentMachines exercises the package's
// concurrency contract under the race detector: one Trace (and its
// prepared decode cache, period, reduced traces and tail-identity
// verdicts, initialized lazily by whichever machine gets there first)
// shared by many machine instances running concurrently. Every
// concurrent run must report the same cycle count as a serial run of
// the same model on another copy of the trace.
func TestSharedTraceConcurrentMachines(t *testing.T) {
	k := loops.All()[0]
	tr := k.MustTrace() // fresh: only the concurrent runs fill its caches
	cfg := M11BR5
	makers := []func() Machine{
		func() Machine { return must(NewBasic(CRAYLike, cfg)) },
		func() Machine { return must(NewMultiIssue(cfg.WithIssue(4, bus.BusN))) },
		func() Machine { return must(NewMultiIssueOOO(cfg.WithIssue(4, bus.Bus1))) },
		func() Machine { return must(NewScoreboard(cfg)) },
		func() Machine { return must(NewTomasulo(cfg)) },
		func() Machine { return must(NewRUU(cfg.WithIssue(2, bus.BusN).WithRUU(20))) },
		func() Machine { return Extrapolate(must(NewRUU(cfg.WithIssue(2, bus.BusN).WithRUU(20)))) },
	}
	want := make([]Result, len(makers))
	for i, mk := range makers {
		want[i] = must(mk().RunChecked(k.SharedTrace(), Limits{}))
	}

	const repeats = 4
	got := make([]Result, len(makers)*repeats)
	var wg sync.WaitGroup
	for rep := 0; rep < repeats; rep++ {
		for i, mk := range makers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[rep*len(makers)+i] = must(mk().RunChecked(tr, Limits{}))
			}()
		}
	}
	wg.Wait()

	for rep := 0; rep < repeats; rep++ {
		for i := range makers {
			g := got[rep*len(makers)+i]
			if g != want[i] {
				t.Errorf("machine %d rep %d: concurrent result %+v != serial %+v", i, rep, g, want[i])
			}
		}
	}
}

// TestMachineReusableAfterRun checks the other half of the contract:
// a single machine instance, used serially, is reusable — RunChecked resets
// all state, so back-to-back runs agree.
func TestMachineReusableAfterRun(t *testing.T) {
	tr := loops.All()[0].SharedTrace()
	cfg := M5BR2
	machines := []Machine{
		must(NewBasic(Simple, cfg)),
		must(NewMultiIssue(cfg.WithIssue(2, bus.BusN))),
		must(NewMultiIssueOOO(cfg.WithIssue(2, bus.BusN))),
		must(NewScoreboard(cfg)),
		must(NewTomasulo(cfg)),
		must(NewRUU(cfg.WithIssue(1, bus.BusN).WithRUU(10))),
	}
	for _, m := range machines {
		first := must(m.RunChecked(tr, Limits{}))
		second := must(m.RunChecked(tr, Limits{}))
		if first != second {
			t.Errorf("%s: repeated runs differ: %+v then %+v", m.Name(), first, second)
		}
	}
}
