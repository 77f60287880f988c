package tables

import (
	"fmt"
	"strings"
	"testing"

	"mfup/internal/core"
	"mfup/internal/faultinject"
	"mfup/internal/loops"
)

// sharedCells resolves b and counts the cells that took a twin
// cell's run instead of simulating their own.
func sharedCells(t *testing.T, b *batch) int {
	t.Helper()
	if _, errs := b.rates(); len(errs) != 0 {
		t.Errorf("table %d: %d errors, first %v", b.table, len(errs), errs[0])
	}
	n := 0
	for _, st := range b.stats {
		if st.Shared {
			n++
		}
	}
	return n
}

// TestTwinCellsShareRuns fails if the tables quietly stop sharing
// runs. On the grids of Tables 5 and 7, built as those tables build
// them, every width-1 1-Bus cell takes its N-Bus twin's run and no
// other cell shares: Table 5 simulates 60 of its 64 cells and Table 7
// 168 of its 192. Cells that carry probes never share.
func TestTwinCellsShareRuns(t *testing.T) {
	table5 := func() *batch {
		b := &batch{table: 5}
		ts := classTraces(loops.Scalar)
		for n := 1; n <= 8; n++ {
			for _, cfg := range core.BaseConfigs() {
				b.defCell(multiSpec("ooo", cfg, n, "nbus"), ts)
				b.defCell(multiSpec("ooo", cfg, n, "1bus"), ts)
			}
		}
		return b
	}
	table7 := &batch{table: 7}
	ts := classTraces(loops.Scalar)
	for _, cfg := range core.BaseConfigs() {
		for _, size := range RUUSizes {
			for n := 1; n <= 4; n++ {
				table7.defCell(ruuSpec(cfg, n, "nbus", size), ts)
				table7.defCell(ruuSpec(cfg, n, "1bus", size), ts)
			}
		}
	}
	if n := sharedCells(t, table5()); n != 4 {
		t.Errorf("table 5: %d cells shared, want 4", n)
	}
	if n := sharedCells(t, table7); n != 24 {
		t.Errorf("table 7: %d cells shared, want 24", n)
	}
	SetCollectMetrics(true)
	defer SetCollectMetrics(false)
	if n := sharedCells(t, table5()); n != 0 {
		t.Errorf("table 5 with metrics: %d cells shared, want 0", n)
	}
}

// TestSharedCellFailsUnderItsOwnName: a twin cell whose shared run
// fails reports the failure under its own cell, naming its own
// machine, exactly as it would have running alone. Fault injection
// turns sharing off, so an injector with an empty plan gives the
// unshared reference.
func TestSharedCellFailsUnderItsOwnName(t *testing.T) {
	SetLimits(core.Limits{MaxCycles: 200})
	defer SetLimits(core.Limits{})
	errorsOf := func() (string, int) {
		b := batch{table: -1}
		ts := classTraces(loops.Scalar)
		for _, busName := range []string{"nbus", "1bus"} {
			b.defCell(multiSpec("ooo", core.M11BR5, 1, busName), ts)
			b.defCell(ruuSpec(core.M5BR2, 1, busName, 20), ts)
		}
		_, errs := b.rates()
		var s strings.Builder
		for _, e := range errs {
			fmt.Fprintln(&s, e)
		}
		shared := 0
		for _, st := range b.stats {
			if st.Shared {
				shared++
			}
		}
		return s.String(), shared
	}
	shared, n := errorsOf()
	if n != 2 {
		t.Fatalf("%d cells shared, want 2", n)
	}
	if !strings.Contains(shared, "task 2 (MultiIssueOOO(1,1-Bus)) on \"lfk05\": sim: MultiIssueOOO(1,1-Bus) on") {
		t.Errorf("the 1-Bus twin's failure does not name its own machine:\n%s", shared)
	}
	faultinject.Activate(faultinject.New(&faultinject.Plan{}))
	unshared, n := errorsOf()
	faultinject.Deactivate()
	if n != 0 {
		t.Fatalf("%d cells shared under fault injection, want 0", n)
	}
	if shared != unshared {
		t.Errorf("shared failures differ from unshared ones:\n%s\nunshared:\n%s", shared, unshared)
	}
}
