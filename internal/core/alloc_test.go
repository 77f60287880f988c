package core

import (
	"strings"
	"testing"

	"mfup/internal/bus"
	"mfup/internal/loops"
)

// TestRunAllocations guards the claim that a warmed machine allocates
// nothing per instruction: re-running LFK 1 at 56,009 instructions
// must stay below one allocation per 100 instructions on the RUU,
// Tomasulo, out-of-order and in-order multiple-issue machines.
func TestRunAllocations(t *testing.T) {
	machines := []Machine{
		must(NewRUU(M11BR5.WithIssue(4, bus.BusN).WithRUU(50))),
		must(NewTomasulo(M11BR5)),
		must(NewMultiIssueOOO(M11BR5.WithIssue(4, bus.BusN))),
		must(NewMultiIssue(M11BR5.WithIssue(4, bus.BusN))),
	}
	for _, n := range []int{100, 4000} {
		k, err := loops.Scaled(1, n)
		if err != nil {
			t.Fatal(err)
		}
		tr := k.MustTrace()
		for _, m := range machines {
			must(m.RunChecked(tr, Limits{})) // warm: size the machine's buffers to the trace
			allocs := testing.AllocsPerRun(3, func() { must(m.RunChecked(tr, Limits{})) })
			t.Logf("%s, n=%d (%d instructions): %.0f allocations per run", m.Name(), n, tr.Len(), allocs)
			if n == 4000 && allocs*100 >= float64(tr.Len()) {
				t.Errorf("%s: %.0f allocations re-running %d instructions, want fewer than one per 100", m.Name(), allocs, tr.Len())
			}
		}
	}
}

// TestExtrapolatorFallbackAllocations guards the fallback on a trace
// that has a period but fails the tail identity check (LFK 14): once
// warmed, the wrapper decides from the cached period and the cached
// tail verdict, so its run allocates no more than the bare machine's.
// The two counts are compared only without the race detector, which
// makes them differ between two runs of the same machine.
func TestExtrapolatorFallbackAllocations(t *testing.T) {
	k, err := loops.Get(14)
	if err != nil {
		t.Fatal(err)
	}
	tr := k.SharedTrace()
	cfg := M11BR5.WithIssue(4, bus.BusN).WithRUU(50)
	bare := must(NewRUU(cfg))
	e := Extrapolate(must(NewRUU(cfg)))
	want := must(bare.RunChecked(tr, Limits{}))
	if got := must(e.RunChecked(tr, Limits{})); got != want {
		t.Fatalf("fallback result %+v differs from bare %+v", got, want)
	}
	if s := e.Stats(); s.Engaged || !strings.Contains(s.Reason, "tail address identity") {
		t.Fatalf("stats = %+v, want the tail identity fallback", s)
	}
	bareAllocs := testing.AllocsPerRun(5, func() { must(bare.RunChecked(tr, Limits{})) })
	wrappedAllocs := testing.AllocsPerRun(5, func() { must(e.RunChecked(tr, Limits{})) })
	t.Logf("%s on %s: %.0f allocations bare, %.0f wrapped", bare.Name(), tr.Name, bareAllocs, wrappedAllocs)
	if !raceEnabled && wrappedAllocs > bareAllocs {
		t.Errorf("fallback run made %.0f allocations, the bare machine %.0f", wrappedAllocs, bareAllocs)
	}
}
