package runner

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mfup/internal/core"
	"mfup/internal/events"
	"mfup/internal/loops"
	"mfup/internal/probe"
	"mfup/internal/simerr"
	"mfup/internal/trace"
)

// must returns v, panicking on err: the machines a test builds and the
// runs it makes are expected to succeed.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	if got := Workers(0); got < 1 {
		t.Errorf("Workers(0) = %d, want >= 1", got)
	}
	if got := Workers(-5); got != Workers(0) {
		t.Errorf("Workers(-5) = %d, want the default %d", got, Workers(0))
	}
}

// TestEachCoversEveryIndexOnce checks that Each visits each index in
// [0, n) exactly once at several worker counts, including more
// workers than work.
func TestEachCoversEveryIndexOnce(t *testing.T) {
	const n = 100
	for _, workers := range []int{1, 2, 7, n + 50} {
		var counts [n]atomic.Int64
		Each(workers, n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Errorf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
	called := false
	Each(4, 0, func(int) { called = true })
	if called {
		t.Error("Each with n=0 invoked fn")
	}
}

// run executes tasks on parallel workers and fails the test on any
// cell error.
func run(t *testing.T, parallel int, tasks []Task) [][]core.Result {
	t.Helper()
	out, _, errs := RunCheckedStats(context.Background(), Options{Parallel: parallel}, tasks)
	if len(errs) != 0 {
		t.Fatalf("unexpected cell errors: %v", errs)
	}
	return out
}

// TestRunDeterministic runs a real simulation grid serially and with
// many workers and requires identical results in identical order.
func TestRunDeterministic(t *testing.T) {
	var traces []*trace.Trace
	for _, k := range loops.ByClass(loops.Scalar) {
		traces = append(traces, k.SharedTrace())
	}
	var tasks []Task
	for _, cfg := range core.BaseConfigs() {
		tasks = append(tasks, Task{
			New:    func() core.Machine { return must(core.NewBasic(core.CRAYLike, cfg)) },
			Traces: traces,
		})
	}
	serial := run(t, 1, tasks)
	parallel := run(t, 8, tasks)
	if len(serial) != len(tasks) || len(parallel) != len(tasks) {
		t.Fatalf("result lengths %d, %d; want %d", len(serial), len(parallel), len(tasks))
	}
	for i := range serial {
		if len(serial[i]) != len(traces) || len(parallel[i]) != len(traces) {
			t.Fatalf("task %d: cell lengths %d, %d; want %d", i, len(serial[i]), len(parallel[i]), len(traces))
		}
		for j := range serial[i] {
			if serial[i][j] != parallel[i][j] {
				t.Errorf("task %d trace %d: serial %+v != parallel %+v", i, j, serial[i][j], parallel[i][j])
			}
		}
	}
}

// panicMachine explodes either at construction or on a chosen trace.
type panicMachine struct {
	inner  core.Machine
	blowOn string // trace name that panics; "" = never
	errOn  string // trace name that returns an error; "" = never
}

func (p *panicMachine) Name() string { return "PanicMachine" }

func (p *panicMachine) SetProbe(pr probe.Probe) { p.inner.SetProbe(pr) }

func (p *panicMachine) SetRecorder(r *events.Recorder) { p.inner.SetRecorder(r) }

func (p *panicMachine) RunChecked(t *trace.Trace, lim core.Limits) (core.Result, error) {
	if t.Name == p.blowOn {
		panic("injected cell panic")
	}
	if t.Name == p.errOn {
		return core.Result{}, errors.New("injected cell error")
	}
	return p.inner.RunChecked(t, lim)
}

// TestRunCheckedIsolatesPanics: a panicking cell yields a CellError
// with a stack while every other cell completes with correct values.
func TestRunCheckedIsolatesPanics(t *testing.T) {
	var traces []*trace.Trace
	for _, k := range loops.ByClass(loops.Scalar) {
		traces = append(traces, k.SharedTrace())
	}
	bad := traces[1].Name
	mk := func() core.Machine {
		return &panicMachine{inner: must(core.NewBasic(core.CRAYLike, core.M11BR5)), blowOn: bad}
	}
	healthy := func() core.Machine { return must(core.NewBasic(core.CRAYLike, core.M11BR5)) }

	tasks := []Task{
		{New: mk, Traces: traces},
		{New: healthy, Traces: traces},
	}
	want := run(t, 1, []Task{{New: healthy, Traces: traces}})[0]

	for _, workers := range []int{1, 4} {
		out, _, errs := RunCheckedStats(context.Background(), Options{Parallel: workers}, tasks)
		if len(errs) != 1 {
			t.Fatalf("workers=%d: %d errors, want 1: %v", workers, len(errs), errs)
		}
		e := errs[0]
		if e.Task != 0 || e.Trace != 1 || e.TraceName != bad {
			t.Errorf("workers=%d: error cell (%d,%d,%q), want (0,1,%q)", workers, e.Task, e.Trace, e.TraceName, bad)
		}
		if len(e.Stack) == 0 {
			t.Errorf("workers=%d: panic CellError carries no stack", workers)
		}
		if !strings.Contains(e.Error(), "injected cell panic") {
			t.Errorf("workers=%d: error %q does not name the panic", workers, e)
		}
		// Healthy cells of the failing task still computed.
		for j := range traces {
			if j == 1 {
				continue
			}
			if out[0][j] != want[j] {
				t.Errorf("workers=%d: task 0 trace %d corrupted: %+v != %+v", workers, j, out[0][j], want[j])
			}
		}
		// The healthy task is untouched.
		for j := range traces {
			if out[1][j] != want[j] {
				t.Errorf("workers=%d: task 1 trace %d corrupted: %+v != %+v", workers, j, out[1][j], want[j])
			}
		}
	}
}

// TestRunCheckedConstructionFailure: a constructor panic is reported
// as Trace == -1 and the whole task's results stay zero.
func TestRunCheckedConstructionFailure(t *testing.T) {
	traces := []*trace.Trace{loops.ByClass(loops.Scalar)[0].SharedTrace()}
	tasks := []Task{{New: func() core.Machine { panic("bad constructor") }, Traces: traces}}
	out, _, errs := RunCheckedStats(context.Background(), Options{}, tasks)
	if len(errs) != 1 || errs[0].Trace != -1 {
		t.Fatalf("errs = %v, want one construction error with Trace -1", errs)
	}
	if len(out[0]) != 1 || out[0][0] != (core.Result{}) {
		t.Errorf("construction-failed task has non-zero results: %+v", out[0])
	}
}

// TestRunCheckedFailFast: with FailFast, cells scheduled after the
// failure are skipped and marked ErrSkipped; keep-going mode runs
// everything.
func TestRunCheckedFailFast(t *testing.T) {
	traces := []*trace.Trace{loops.ByClass(loops.Scalar)[0].SharedTrace()}
	bad := traces[0].Name
	var tasks []Task
	tasks = append(tasks, Task{
		New: func() core.Machine {
			return &panicMachine{inner: must(core.NewBasic(core.CRAYLike, core.M11BR5)), errOn: bad}
		},
		Traces: traces,
	})
	for i := 0; i < 16; i++ {
		tasks = append(tasks, Task{
			New:    func() core.Machine { return must(core.NewBasic(core.CRAYLike, core.M11BR5)) },
			Traces: traces,
		})
	}

	// Keep-going (default): exactly the one injected failure.
	_, _, errs := RunCheckedStats(context.Background(), Options{Parallel: 1}, tasks)
	if len(errs) != 1 {
		t.Fatalf("keep-going: %d errors, want 1: %v", len(errs), errs)
	}

	// Fail-fast with one worker: everything after task 0 is skipped.
	_, _, errs = RunCheckedStats(context.Background(), Options{Parallel: 1, FailFast: true}, tasks)
	if len(errs) != len(tasks) {
		t.Fatalf("fail-fast: %d errors, want %d", len(errs), len(tasks))
	}
	if !strings.Contains(errs[0].Error(), "injected cell error") {
		t.Errorf("fail-fast: first error %q is not the injected failure", errs[0])
	}
	for _, e := range errs[1:] {
		if !errors.Is(e, ErrSkipped) {
			t.Errorf("fail-fast: task %d error %v, want ErrSkipped", e.Task, e.Err)
		}
	}
}

// TestRunCheckedCancelledContext: a pre-cancelled context skips every
// cell.
func TestRunCheckedCancelledContext(t *testing.T) {
	traces := []*trace.Trace{loops.ByClass(loops.Scalar)[0].SharedTrace()}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tasks := []Task{{New: func() core.Machine { return must(core.NewBasic(core.CRAYLike, core.M11BR5)) }, Traces: traces}}
	_, _, errs := RunCheckedStats(ctx, Options{}, tasks)
	if len(errs) != 1 || !errors.Is(errs[0], ErrSkipped) {
		t.Fatalf("errs = %v, want one ErrSkipped", errs)
	}
}

// TestRunCheckedCellTimeout: an effectively-zero cell timeout fires
// the per-cell deadline on a real machine run.
func TestRunCheckedCellTimeout(t *testing.T) {
	traces := []*trace.Trace{loops.ByClass(loops.Scalar)[0].SharedTrace()}
	tasks := []Task{{New: func() core.Machine { return must(core.NewBasic(core.CRAYLike, core.M11BR5)) }, Traces: traces}}
	_, _, errs := RunCheckedStats(context.Background(), Options{CellTimeout: time.Nanosecond}, tasks)
	if len(errs) != 1 {
		t.Fatalf("errs = %v, want one deadline error", errs)
	}
	var serr *core.SimError
	if !errors.As(errs[0], &serr) || serr.Kind != simerr.KindDeadline {
		t.Errorf("error = %v, want KindDeadline *SimError", errs[0])
	}
}

// TestSafe converts panics to errors and passes errors through.
func TestSafe(t *testing.T) {
	if err := Safe(func() {}); err != nil {
		t.Errorf("Safe(no-op) = %v", err)
	}
	if err := Safe(func() { panic("boom") }); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("Safe(panic) = %v", err)
	}
	sentinel := errors.New("typed")
	if err := Safe(func() { panic(sentinel) }); !errors.Is(err, sentinel) {
		t.Errorf("Safe(panic(error)) = %v, want the error value", err)
	}
}

// TestRunCheckedStatsTelemetry: RunCheckedStats fills per-task
// wall-clock, cycle, and event telemetry, attaches recorders to the
// machines, and leaves the results identical to an unrecorded run's.
func TestRunCheckedStatsTelemetry(t *testing.T) {
	var traces []*trace.Trace
	for _, k := range loops.ByClass(loops.Scalar) {
		traces = append(traces, k.SharedTrace())
	}
	rec := events.NewRecorder(100)
	tasks := []Task{
		{New: func() core.Machine { return must(core.NewBasic(core.CRAYLike, core.M11BR5)) }, Traces: traces, Recorder: rec},
		{New: func() core.Machine { return must(core.NewBasic(core.Simple, core.M11BR5)) }, Traces: traces},
	}
	out, stats, errs := RunCheckedStats(context.Background(), Options{Parallel: 1}, tasks)
	if len(errs) != 0 {
		t.Fatalf("unexpected cell errors: %v", errs)
	}
	if len(stats) != len(tasks) {
		t.Fatalf("got %d stats, want %d", len(stats), len(tasks))
	}
	for i := range tasks {
		var cycles int64
		for _, r := range out[i] {
			cycles += r.Cycles
		}
		if stats[i].Cycles != cycles {
			t.Errorf("task %d: stat cycles %d, results sum to %d", i, stats[i].Cycles, cycles)
		}
		if stats[i].Wall < 0 {
			t.Errorf("task %d: negative wall time %v", i, stats[i].Wall)
		}
	}
	// The recorder task captured its runs, honored the 100-event cap,
	// and its drop count surfaced in the stats.
	if len(rec.Runs()) != len(traces) {
		t.Errorf("recorder holds %d runs, want %d", len(rec.Runs()), len(traces))
	}
	if stats[0].Events != rec.Events() || stats[0].EventsDropped != rec.Dropped() {
		t.Errorf("stat events %d/%d, recorder says %d/%d",
			stats[0].Events, stats[0].EventsDropped, rec.Events(), rec.Dropped())
	}
	if stats[0].Events == 0 || stats[0].EventsDropped == 0 {
		t.Errorf("expected events and drops under a 100-event cap, got %d/%d",
			stats[0].Events, stats[0].EventsDropped)
	}
	// The recorder-less task reports no event telemetry.
	if stats[1].Events != 0 || stats[1].EventsDropped != 0 {
		t.Errorf("bare task reports event telemetry %d/%d", stats[1].Events, stats[1].EventsDropped)
	}

	// The same task without a recorder returns the same results.
	plain := run(t, 1, []Task{
		{New: func() core.Machine { return must(core.NewBasic(core.CRAYLike, core.M11BR5)) }, Traces: traces},
	})
	for j := range plain[0] {
		if plain[0][j] != out[0][j] {
			t.Errorf("trace %d: unrecorded %+v != recorded %+v", j, plain[0][j], out[0][j])
		}
	}
}
