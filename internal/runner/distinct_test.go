package runner

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"mfup/internal/core"
	"mfup/internal/events"
	"mfup/internal/faultinject"
	"mfup/internal/isa"
	"mfup/internal/loops"
	"mfup/internal/probe"
	"mfup/internal/simerr"
	"mfup/internal/trace"
)

// namedMachine reports cycles equal to its trace's length, or fails
// with a budget error on traces named in failOn, and counts its runs.
type namedMachine struct {
	name   string
	failOn string
	runs   *atomic.Int64
}

func (m *namedMachine) Name() string                   { return m.name }
func (m *namedMachine) SetProbe(p probe.Probe)         {}
func (m *namedMachine) SetRecorder(r *events.Recorder) {}
func (m *namedMachine) RunChecked(t *trace.Trace, lim core.Limits) (core.Result, error) {
	m.runs.Add(1)
	if t.Name == m.failOn {
		return core.Result{}, &simerr.SimError{Kind: simerr.KindCycleBudget, Machine: m.name, Trace: t.Name, Cycle: 7, Instr: 3}
	}
	return core.Result{Machine: m.name, Trace: t.Name, Instructions: int64(t.Len()), Cycles: int64(t.Len())}, nil
}

// TestRunDistinctSharesEqualKeys: tasks with equal keys over the same
// traces run once; each duplicate gets the results and a copy of each
// error under its own index and name. Different traces, a missing key
// or an attached probe keep a task to its own run.
func TestRunDistinctSharesEqualKeys(t *testing.T) {
	var ts, other []*trace.Trace
	for _, n := range []int{1, 2, 3} {
		k := must(loops.Get(n))
		ts = append(ts, k.SharedTrace())
	}
	other = ts[:2]
	var runs, built atomic.Int64
	task := func(name string, traces []*trace.Trace) Task {
		return Task{Traces: traces, New: func() core.Machine {
			built.Add(1)
			return &namedMachine{name: name, failOn: ts[1].Name, runs: &runs}
		}}
	}
	tasks := []Task{
		task("A", ts),      // 0: runs
		task("A'", ts),     // 1: twin of 0
		task("B", ts),      // 2: its own key
		task("A''", other), // 3: key of 0, other traces
		task("A'''", ts),   // 4: twin of 0
		task("C", ts),      // 5: no key
		task("A4", ts),     // 6: key of 0, but probed
	}
	tasks[6].Probe = new(probe.Counters)
	keys := []string{"a", "a", "b", "a", "a", "", "a"}
	out, stats, errs := RunDistinct(context.Background(), Options{Parallel: 2}, tasks, func(i int) (string, [isa.NumUnits]int, bool) {
		return keys[i], [isa.NumUnits]int{}, keys[i] != ""
	})
	if got, want := runs.Load(), int64(4*len(ts)+len(other)); got != want { // tasks 0, 2, 5, 6 and 3
		t.Errorf("%d runs, want %d", got, want)
	}
	if got := built.Load(); got != int64(len(tasks)) {
		t.Errorf("%d machines built, want one per task (%d)", got, len(tasks))
	}
	for i, shared := range []bool{false, true, false, false, true, false, false} {
		if stats[i].Shared != shared {
			t.Errorf("task %d: Shared %v, want %v", i, stats[i].Shared, shared)
		}
	}
	for _, i := range []int{1, 4} {
		if stats[i].Cycles != stats[0].Cycles || stats[i].Wall != 0 {
			t.Errorf("task %d stats %+v, twin %+v", i, stats[i], stats[0])
		}
		for j, r := range out[i] {
			want := out[0][j]
			if want.Machine != "" {
				want.Machine = tasks[i].New().Name()
			}
			if r != want {
				t.Errorf("task %d trace %d: %+v, want %+v", i, j, r, want)
			}
		}
	}
	var got []string
	for _, e := range errs {
		var se *simerr.SimError
		if !errors.As(e, &se) || se.Machine != e.Machine {
			t.Errorf("%v: cell names %q, its SimError %v", e, e.Machine, se)
		}
		got = append(got, fmt.Sprintf("%d/%d %s", e.Task, e.Trace, e.Machine))
	}
	want := []string{"0/1 A", "1/1 A'", "2/1 B", "3/1 A''", "4/1 A'''", "5/1 C", "6/1 A4"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("errors %v, want %v", got, want)
	}
}

// TestRunDistinctLendsAcrossUnitCopies: a task takes the run of its
// family member with fewer FloatMul copies only when that run had no
// error and never found the multiplier busy. The segmented multiplier
// of a single-issue CRAY-like machine is never busy, so its one-copy
// run answers for two and three copies, and for a twin of the
// two-copy task. The non-segmented one is, so the two-copy machine
// runs in the second phase, is faster, and its twin takes that run. A
// representative that fails lends nothing, and probed or recorded
// tasks run their own. Every result is the task's own run's, at one
// worker and two; FailFast skips the second phase after a failure in
// the first, and fault injection turns sharing off.
func TestRunDistinctLendsAcrossUnitCopies(t *testing.T) {
	var ts []*trace.Trace
	for _, n := range []int{1, 5, 7} {
		ts = append(ts, must(loops.Get(n)).SharedTrace())
	}
	// Each task builds a single-issue machine with muls FloatMul copies.
	type copyMachine struct {
		org  core.Organization
		cfg  core.Config
		muls int
		bad  bool // New panics
	}
	m5 := core.M5BR2
	machines := []copyMachine{
		{org: core.CRAYLike, cfg: core.M11BR5, muls: 1},     // 0: representative of 1, 2 and 6
		{org: core.CRAYLike, cfg: core.M11BR5, muls: 2},     // 1: takes 0's run
		{org: core.CRAYLike, cfg: core.M11BR5, muls: 3},     // 2: takes 0's run
		{org: core.NonSegmented, cfg: core.M11BR5, muls: 1}, // 3: finds the multiplier busy
		{org: core.NonSegmented, cfg: core.M11BR5, muls: 2}, // 4: runs in phase 2
		{org: core.NonSegmented, cfg: core.M11BR5, muls: 2}, // 5: twin of 4
		{org: core.CRAYLike, cfg: core.M11BR5, muls: 2},     // 6: twin of 1
		{org: core.CRAYLike, cfg: m5, muls: 1, bad: true},   // 7: fails to build
		{org: core.CRAYLike, cfg: m5, muls: 2},              // 8: runs in phase 2
		{org: core.CRAYLike, cfg: core.M11BR5, muls: 4},     // 9: probed
		{org: core.CRAYLike, cfg: core.M11BR5, muls: 4},     // 10: recorded
	}
	tasks := make([]Task, len(machines))
	for i, cm := range machines {
		tasks[i] = Task{Traces: ts, New: func() core.Machine {
			if cm.bad {
				panic("no machine")
			}
			cfg := cm.cfg
			cfg.FUCount[isa.FloatMul] = cm.muls
			return must(core.NewBasic(cm.org, cfg))
		}}
	}
	tasks[9].Probe = new(probe.Counters)
	tasks[10].Recorder = events.NewRecorder(16)
	type family struct {
		org core.Organization
		cfg core.Config
	}
	key := func(i int) (family, [isa.NumUnits]int, bool) {
		var copies [isa.NumUnits]int
		for u := range copies {
			copies[u] = 1
		}
		copies[isa.FloatMul] = machines[i].muls
		return family{machines[i].org, machines[i].cfg}, copies, true
	}
	shared := []bool{false, true, true, false, false, true, true, false, false, false, false}

	want, _, wantErrs := RunCheckedStats(context.Background(), Options{Parallel: 1}, tasks)
	if len(wantErrs) != 1 || wantErrs[0].Task != 7 {
		t.Fatalf("unshared errors %v, want task 7's alone", wantErrs)
	}
	if fmt.Sprint(want[4]) == fmt.Sprint(want[3]) {
		t.Fatal("two non-segmented multipliers run at the rate of one: the test shows nothing")
	}
	for _, par := range []int{1, 2} {
		out, stats, errs := RunDistinct(context.Background(), Options{Parallel: par}, tasks, key)
		for i := range tasks {
			if stats[i].Shared != shared[i] {
				t.Errorf("parallel %d, task %d: Shared %v, want %v", par, i, stats[i].Shared, shared[i])
			}
			if i != 7 && !slices.Equal(out[i], want[i]) {
				t.Errorf("parallel %d, task %d: %v, its own run %v", par, i, out[i], want[i])
			}
		}
		if fmt.Sprint(errs) != fmt.Sprint(wantErrs) {
			t.Errorf("parallel %d: errors %v, want %v", par, errs, wantErrs)
		}
		if stats[0].Refused.Has(isa.FloatMul) || !stats[3].Refused.Has(isa.FloatMul) || stats[1].Refused != stats[0].Refused {
			t.Errorf("parallel %d: refused %b, %b and %b for tasks 0, 1 and 3", par, stats[0].Refused, stats[1].Refused, stats[3].Refused)
		}
	}

	_, stats, errs := RunDistinct(context.Background(), Options{Parallel: 1, FailFast: true}, tasks, key)
	skipped := map[int]int{}
	for _, e := range errs {
		if errors.Is(e, ErrSkipped) {
			skipped[e.Task]++
		}
	}
	for _, i := range []int{4, 5, 8} {
		if skipped[i] != len(ts) {
			t.Errorf("fail-fast: task %d skipped %d of %d traces, want all", i, skipped[i], len(ts))
		}
	}
	if !stats[1].Shared || !stats[2].Shared {
		t.Error("fail-fast: tasks 1 and 2 did not take the run that finished before the failure")
	}

	faultinject.Activate(faultinject.New(&faultinject.Plan{}))
	defer faultinject.Deactivate()
	_, stats, _ = RunDistinct(context.Background(), Options{Parallel: 2}, tasks, key)
	for i, st := range stats {
		if st.Shared {
			t.Errorf("fault injection on: task %d shared a run", i)
		}
	}
}
