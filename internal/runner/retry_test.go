package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"mfup/internal/core"
	"mfup/internal/faultinject"
	"mfup/internal/loops"
	"mfup/internal/simerr"
	"mfup/internal/trace"
)

func TestTransientClassification(t *testing.T) {
	sim := func(k simerr.Kind, transient bool) error {
		return &simerr.SimError{Kind: k, Machine: "M", Trace: "t", Transient: transient}
	}
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"deadline", sim(simerr.KindDeadline, false), true},
		{"injected transient", sim(simerr.KindInjected, true), true},
		{"injected permanent", sim(simerr.KindInjected, false), false},
		{"cycle budget", sim(simerr.KindCycleBudget, false), false},
		{"stall", sim(simerr.KindStall, false), false},
		{"bad trace", sim(simerr.KindBadTrace, false), false},
		{"skipped", ErrSkipped, false},
		{"cancelled", context.Canceled, false},
		{"ctx deadline", context.DeadlineExceeded, true},
		{"write fault transient", &faultinject.Error{Site: "write.x", Transient: true}, true},
		{"write fault permanent", &faultinject.Error{Site: "write.x"}, false},
		{"panic", &panicError{value: "boom"}, false},
		{"panic wrapping deadline", &panicError{value: sim(simerr.KindDeadline, false)}, true},
		{"plain error", errors.New("mystery"), false},
		{"wrapped deadline", fmt.Errorf("cell: %w", sim(simerr.KindDeadline, false)), true},
	}
	for _, c := range cases {
		if got := Transient(c.err); got != c.want {
			t.Errorf("Transient(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestBackoffDelayShape(t *testing.T) {
	base := 100 * time.Millisecond
	for attempt := 1; attempt <= 6; attempt++ {
		nominal := base << (attempt - 1)
		d := backoffDelay(base, 1, 0, 0, attempt)
		if d < nominal/2 || d >= nominal {
			t.Errorf("attempt %d: delay %v outside [%v, %v)", attempt, d, nominal/2, nominal)
		}
	}
	// The cap holds even at absurd attempt counts (shift overflow).
	for _, attempt := range []int{10, 40, 63} {
		if d := backoffDelay(base, 1, 0, 0, attempt); d > maxBackoff {
			t.Errorf("attempt %d: delay %v exceeds the %v cap", attempt, d, maxBackoff)
		}
	}
	// Zero base falls back to the default.
	if d := backoffDelay(0, 1, 0, 0, 1); d < DefaultRetryBackoff/2 || d >= DefaultRetryBackoff {
		t.Errorf("zero base: delay %v outside the default window", d)
	}
}

func TestBackoffJitterDeterminism(t *testing.T) {
	a := backoffDelay(time.Second, 42, 3, 1, 2)
	if b := backoffDelay(time.Second, 42, 3, 1, 2); a != b {
		t.Errorf("same coordinates gave %v then %v", a, b)
	}
	// Different coordinates de-synchronize (the point of jitter).
	distinct := map[time.Duration]bool{a: true}
	distinct[backoffDelay(time.Second, 42, 4, 1, 2)] = true
	distinct[backoffDelay(time.Second, 42, 3, 2, 2)] = true
	distinct[backoffDelay(time.Second, 43, 3, 1, 2)] = true
	if len(distinct) < 3 {
		t.Errorf("jitter barely varies across cells: %v", distinct)
	}
}

// retryTestTask builds a single-trace task over kernel 1 on the
// simple machine.
func retryTestTask(t *testing.T) (Task, *trace.Trace) {
	t.Helper()
	k, err := loops.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	tr := k.SharedTrace()
	return Task{
		New: func() core.Machine {
			m, err := core.NewBasic(core.Simple, core.Config{MemLatency: 11, BranchLatency: 5})
			if err != nil {
				t.Error(err)
			}
			return m
		},
		Traces: []*trace.Trace{tr},
	}, tr
}

// activateFaults installs a fault plan for the test and removes it on
// cleanup.
func activateFaults(t *testing.T, spec string) *faultinject.Injector {
	t.Helper()
	plan, err := faultinject.ParsePlan(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	in := faultinject.New(plan)
	faultinject.Activate(in)
	t.Cleanup(faultinject.Deactivate)
	return in
}

func TestRetryHealsTransientFault(t *testing.T) {
	// The fault fires on the first two runs of the cell and heals; with
	// two retries the cell must succeed, with the fake clock recording
	// the exact backoff schedule.
	activateFaults(t, "sim:err:times=2:transient")
	task, _ := retryTestTask(t)

	var slept []time.Duration
	opts := Options{
		Parallel: 1, Retries: 2, RetryBackoff: 100 * time.Millisecond, RetrySeed: 7,
		Sleep: func(d time.Duration) { slept = append(slept, d) },
	}
	out, stats, errs := RunCheckedStats(context.Background(), opts, []Task{task})
	if len(errs) != 0 {
		t.Fatalf("errs = %v, want none (fault heals within the retry budget)", errs)
	}
	if out[0][0].Cycles <= 0 {
		t.Error("healed cell has no result")
	}
	if stats[0].Retries != 2 {
		t.Errorf("stats retries = %d, want 2", stats[0].Retries)
	}
	want := []time.Duration{
		backoffDelay(100*time.Millisecond, 7, 0, 0, 1),
		backoffDelay(100*time.Millisecond, 7, 0, 0, 2),
	}
	if len(slept) != 2 || slept[0] != want[0] || slept[1] != want[1] {
		t.Errorf("sleeps = %v, want %v", slept, want)
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	// A fault that outlives the retry budget: the failure is reported
	// with its attempt count, and only Retries sleeps happened.
	activateFaults(t, "sim:err:times=10:transient")
	task, tr := retryTestTask(t)

	var slept int
	opts := Options{
		Parallel: 1, Retries: 2,
		Sleep: func(time.Duration) { slept++ },
	}
	out, stats, errs := RunCheckedStats(context.Background(), opts, []Task{task})
	if len(errs) != 1 {
		t.Fatalf("errs = %v, want exactly one", errs)
	}
	e := errs[0]
	if e.Attempts != 3 {
		t.Errorf("attempts = %d, want 3 (1 run + 2 retries)", e.Attempts)
	}
	if !strings.Contains(e.Error(), "after 3 attempts") {
		t.Errorf("error %q does not report the attempts", e.Error())
	}
	if e.TraceName != tr.Name {
		t.Errorf("trace name = %q, want %q", e.TraceName, tr.Name)
	}
	var se *simerr.SimError
	if !errors.As(e.Err, &se) || se.Kind != simerr.KindInjected {
		t.Errorf("err = %v, want an injected SimError", e.Err)
	}
	if slept != 2 || stats[0].Retries != 2 {
		t.Errorf("slept %d, stats retries %d, want 2 and 2", slept, stats[0].Retries)
	}
	if out[0][0] != (core.Result{}) {
		t.Error("failed cell has a non-zero result")
	}
}

func TestPermanentFailureNotRetried(t *testing.T) {
	// A permanent injected error must fail on the first attempt even
	// with a generous retry budget.
	activateFaults(t, "sim:err:times=10")
	task, _ := retryTestTask(t)

	opts := Options{
		Parallel: 1, Retries: 5,
		Sleep: func(time.Duration) { t.Error("slept for a permanent failure") },
	}
	_, stats, errs := RunCheckedStats(context.Background(), opts, []Task{task})
	if len(errs) != 1 || errs[0].Attempts != 1 {
		t.Fatalf("errs = %v, want one first-attempt failure", errs)
	}
	if stats[0].Retries != 0 {
		t.Errorf("stats retries = %d, want 0", stats[0].Retries)
	}
}

func TestPanicNotRetried(t *testing.T) {
	activateFaults(t, "sim:panic:at=5")
	task, _ := retryTestTask(t)
	opts := Options{
		Parallel: 1, Retries: 5,
		Sleep: func(time.Duration) { t.Error("slept for a panic") },
	}
	_, _, errs := RunCheckedStats(context.Background(), opts, []Task{task})
	if len(errs) != 1 || errs[0].Attempts != 1 {
		t.Fatalf("errs = %v, want one first-attempt failure", errs)
	}
	if errs[0].Stack == nil {
		t.Error("panic failure lost its stack")
	}
	if !strings.Contains(errs[0].Err.Error(), "injected panic") {
		t.Errorf("err = %v, want the injected panic", errs[0].Err)
	}
}

func TestRetryStopsOnCancelledContext(t *testing.T) {
	activateFaults(t, "sim:err:times=100:transient")
	task, _ := retryTestTask(t)
	ctx, cancel := context.WithCancel(context.Background())
	opts := Options{
		Parallel: 1, Retries: 100,
		Sleep: func(time.Duration) { cancel() }, // context dies mid-backoff
	}
	_, stats, errs := RunCheckedStats(ctx, opts, []Task{task})
	if len(errs) != 1 {
		t.Fatalf("errs = %v, want one", errs)
	}
	if stats[0].Retries != 1 {
		t.Errorf("retries = %d, want 1 (the loop must stop once the context ends)", stats[0].Retries)
	}
}

func TestRetriesOffIsSeedBehavior(t *testing.T) {
	// With no faults and no retries, results must match a plain run.
	task, tr := retryTestTask(t)
	out, _, errs := RunCheckedStats(context.Background(), Options{Parallel: 1}, []Task{task})
	if len(errs) != 0 {
		t.Fatalf("healthy run failed: %v", errs)
	}
	ref := must(task.New().RunChecked(tr, core.Limits{}))
	if out[0][0] != ref {
		t.Errorf("checked result %+v differs from plain run %+v", out[0][0], ref)
	}
}
