package runner

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"mfup/internal/core"
	"mfup/internal/events"
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
	out, stats, errs := RunDistinct(context.Background(), Options{Parallel: 2}, tasks, func(i int) (string, bool) {
		return keys[i], keys[i] != ""
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
