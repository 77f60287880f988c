package mfup_test

// Chaos-matrix tests: seeded fault injection swept across every
// machine model and loop class, holding the whole stack to its
// robustness contract — no hang, no bare panic, structured errors
// with intact coordinates, retries that heal what is transient, and
// checkpoint resumes that reproduce the uninterrupted output byte for
// byte. Everything here is deterministic: fault placement, retry
// jitter, and trace mutations all derive from fixed seeds.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mfup/internal/bus"
	"mfup/internal/core"
	"mfup/internal/faultinject"
	"mfup/internal/loops"
	"mfup/internal/runner"
	"mfup/internal/simerr"
	"mfup/internal/tables"
	"mfup/internal/trace"
)

// chaosSeed fixes every randomized choice in the matrix.
const chaosSeed = 1988

// chaosMachine is one machine model under chaos: a constructor and
// the trace it runs (the vector machine needs a vectorized coding).
type chaosMachine struct {
	name string
	mk   func() core.Machine
	tr   *trace.Trace

	// livelocks marks the dynamically-scheduled models that carry a
	// forward-progress watchdog (Tomasulo, out-of-order multi-issue,
	// RUU). The statically-timed models compute issue times directly
	// and cannot livelock, so an injected stall is a documented no-op
	// there.
	livelocks bool
}

// chaosMachines returns all ten machine models with a representative
// loop each: a scalar loop for the scalar-issue models, a vector
// coding for the vector machine.
func chaosMachines(t *testing.T) []chaosMachine {
	t.Helper()
	scalar := func(n int) *trace.Trace {
		k, err := loops.Get(n)
		if err != nil {
			t.Fatal(err)
		}
		return k.SharedTrace()
	}
	vk, err := loops.VectorKernel(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{MemLatency: 11, BranchLatency: 5}
	multi := cfg.WithIssue(4, bus.BusN)
	ruu := cfg.WithIssue(2, bus.BusN).WithRUU(30)
	return []chaosMachine{
		{name: "Simple", mk: func() core.Machine { return must(core.NewBasic(core.Simple, cfg)) }, tr: scalar(5)},
		{name: "SerialMemory", mk: func() core.Machine { return must(core.NewBasic(core.SerialMemory, cfg)) }, tr: scalar(6)},
		{name: "NonSegmented", mk: func() core.Machine { return must(core.NewBasic(core.NonSegmented, cfg)) }, tr: scalar(11)},
		{name: "CRAY-like", mk: func() core.Machine { return must(core.NewBasic(core.CRAYLike, cfg)) }, tr: scalar(13)},
		{name: "Scoreboard", mk: func() core.Machine { return must(core.NewScoreboard(cfg)) }, tr: scalar(5)},
		{name: "Tomasulo", mk: func() core.Machine { return must(core.NewTomasulo(cfg.WithRUU(4))) }, tr: scalar(14), livelocks: true},
		{name: "MultiIssue", mk: func() core.Machine { return must(core.NewMultiIssue(multi)) }, tr: scalar(5)},
		{name: "MultiIssueOOO", mk: func() core.Machine { return must(core.NewMultiIssueOOO(multi)) }, tr: scalar(13), livelocks: true},
		{name: "RUU", mk: func() core.Machine { return must(core.NewRUU(ruu)) }, tr: scalar(11), livelocks: true},
		{name: "Vector", mk: func() core.Machine { return must(core.NewVector(cfg)) }, tr: vk.SharedTrace()},
	}
}

// chaosRun executes one (machine, trace) cell through the runner —
// the same per-cell recover/retry path the table sweeps use — with
// watchdogs armed so an injected stall can never hang the test.
func chaosRun(t *testing.T, m chaosMachine, opts runner.Options) (core.Result, []*runner.CellError) {
	t.Helper()
	if opts.Limits == (core.Limits{}) {
		opts.Limits = core.Limits{MaxCycles: 1 << 22, StallCycles: 4096}
	}
	if opts.Parallel == 0 {
		opts.Parallel = 1
	}
	task := runner.Task{New: m.mk, Traces: []*trace.Trace{m.tr}}
	out, _, errs := runner.RunCheckedStats(context.Background(), opts, []runner.Task{task})
	return out[0][0], errs
}

// arm activates a fault plan for the duration of the subtest.
func arm(t *testing.T, spec string) *faultinject.Injector {
	t.Helper()
	plan, err := faultinject.ParsePlan(spec, chaosSeed)
	if err != nil {
		t.Fatal(err)
	}
	in := faultinject.New(plan)
	faultinject.Activate(in)
	t.Cleanup(faultinject.Deactivate)
	return in
}

// simError digs the structured simulation error out of a cell failure.
func simError(t *testing.T, errs []*runner.CellError) *simerr.SimError {
	t.Helper()
	if len(errs) != 1 {
		t.Fatalf("cell errors = %v, want exactly one", errs)
	}
	var se *simerr.SimError
	if !errors.As(errs[0].Err, &se) {
		t.Fatalf("cell error %v is not a structured SimError", errs[0].Err)
	}
	return se
}

// TestChaosMatrix sweeps the injected fault kinds across every
// machine model: panics are recovered with stacks, injected errors
// and stalls surface as structured kinds, transient faults heal
// within the retry budget, and once a fault's window passes the cell
// reproduces the healthy baseline exactly.
func TestChaosMatrix(t *testing.T) {
	for _, m := range chaosMachines(t) {
		m := m
		t.Run(m.name, func(t *testing.T) {
			faultinject.Deactivate()
			baseline, errs := chaosRun(t, m, runner.Options{})
			if len(errs) != 0 {
				t.Fatalf("healthy baseline failed: %v", errs)
			}

			t.Run("panic", func(t *testing.T) {
				arm(t, "sim:panic:at=7")
				_, errs := chaosRun(t, m, runner.Options{})
				if len(errs) != 1 {
					t.Fatalf("errs = %v, want one recovered panic", errs)
				}
				e := errs[0]
				if e.Stack == nil {
					t.Error("recovered panic lost its stack")
				}
				if !strings.Contains(e.Err.Error(), "injected panic") {
					t.Errorf("err %v does not identify the injected panic", e.Err)
				}
				if e.TraceName != m.tr.Name {
					t.Errorf("failure names trace %q, want %q", e.TraceName, m.tr.Name)
				}
			})

			t.Run("error", func(t *testing.T) {
				arm(t, "sim:err:at=3")
				_, errs := chaosRun(t, m, runner.Options{})
				se := simError(t, errs)
				if se.Kind != simerr.KindInjected || se.Transient {
					t.Errorf("kind = %v transient = %v, want permanent KindInjected", se.Kind, se.Transient)
				}
				if se.Machine == "" || se.Trace != m.tr.Name {
					t.Errorf("error coordinates broken: machine %q trace %q", se.Machine, se.Trace)
				}
			})

			t.Run("stall", func(t *testing.T) {
				// The injected stall suppresses forward-progress recording,
				// so on the dynamically-scheduled models the stall watchdog
				// must fire — for real, with a cycle snapshot, not a hang.
				// The statically-timed models have no livelock to watch
				// for; there the injection is a documented no-op and the
				// run must complete identical to the baseline.
				arm(t, "sim:stall:at=5")
				r, errs := chaosRun(t, m, runner.Options{
					Limits: core.Limits{MaxCycles: 1 << 22, StallCycles: 512},
				})
				if !m.livelocks {
					if len(errs) != 0 {
						t.Fatalf("stall injection failed a statically-timed machine: %v", errs)
					}
					if r != baseline {
						t.Errorf("stall injection changed the result: %+v vs %+v", r, baseline)
					}
					return
				}
				se := simError(t, errs)
				if se.Kind != simerr.KindStall {
					t.Errorf("kind = %v, want KindStall (the watchdog, not a hang)", se.Kind)
				}
				if se.Cycle <= 0 {
					t.Errorf("stall snapshot has no cycle: %+v", se)
				}
			})

			t.Run("transient heals", func(t *testing.T) {
				arm(t, "sim:err:at=2:times=2:transient")
				r, errs := chaosRun(t, m, runner.Options{
					Retries: 3, RetrySeed: chaosSeed,
					Sleep: func(time.Duration) {},
				})
				if len(errs) != 0 {
					t.Fatalf("transient fault did not heal within the retry budget: %v", errs)
				}
				if r != baseline {
					t.Errorf("healed result %+v differs from baseline %+v", r, baseline)
				}
			})

			t.Run("window passes", func(t *testing.T) {
				// times=1 arms the fault for the first run of this cell
				// only; the second run must reproduce the baseline exactly.
				arm(t, "sim:err:at=1:times=1")
				if _, errs := chaosRun(t, m, runner.Options{}); len(errs) != 1 {
					t.Fatalf("first run: errs = %v, want one", errs)
				}
				r, errs := chaosRun(t, m, runner.Options{})
				if len(errs) != 0 {
					t.Fatalf("second run still failing: %v", errs)
				}
				if r != baseline {
					t.Errorf("post-window result %+v differs from baseline %+v", r, baseline)
				}
			})

			t.Run("filtered plan is inert", func(t *testing.T) {
				// A plan whose machine filter matches nothing must leave
				// the healthy path bit-identical to the seed behavior.
				arm(t, "sim:panic:at=1:machine=no-such-machine")
				r, errs := chaosRun(t, m, runner.Options{})
				if len(errs) != 0 {
					t.Fatalf("inert plan failed the cell: %v", errs)
				}
				if r != baseline {
					t.Errorf("inert plan changed the result: %+v vs %+v", r, baseline)
				}
			})
		})
	}
}

// TestChaosMutatedTraces feeds seed-corrupted traces to every machine
// model: each corruption class must surface as a structured
// KindBadTrace diagnostic naming the damaged op — or, when the damage
// leaves the trace well-formed (truncation), run to completion —
// never a panic, never a hang.
func TestChaosMutatedTraces(t *testing.T) {
	for _, m := range chaosMachines(t) {
		m := m
		t.Run(m.name, func(t *testing.T) {
			for mut := faultinject.Mutation(0); int(mut) < faultinject.NumMutations; mut++ {
				mut := mut
				t.Run(mut.String(), func(t *testing.T) {
					mt := faultinject.MutateTrace(m.tr, mut, chaosSeed)
					cell := chaosMachine{name: m.name, mk: m.mk, tr: mt}
					_, errs := chaosRun(t, cell, runner.Options{})
					if mut == faultinject.MutTruncate {
						// Truncation yields a shorter but well-formed trace;
						// termination (no panic, no hang) is the contract.
						for _, e := range errs {
							if e.Stack != nil {
								t.Fatalf("truncated trace panicked the model:\n%s", e.Stack)
							}
						}
						return
					}
					se := simError(t, errs)
					if se.Kind != simerr.KindBadTrace {
						t.Errorf("kind = %v, want KindBadTrace", se.Kind)
					}
					if !strings.Contains(se.Error(), mut.String()) {
						t.Errorf("diagnostic %q does not name the mutated trace", se.Error())
					}
				})
			}
		})
	}
}

// TestChaosTableResume holds the checkpoint journal to the
// acceptance bar: for every table, a journal holding an arbitrary
// half of the cells plus a regeneration against it must render byte
// for byte what the uninterrupted run renders. Under -short only the
// first three tables run; the full sweep covers Tables 1-8 and the
// section 3.3 supplement.
func TestChaosTableResume(t *testing.T) {
	type gen struct {
		name string
		get  func() *tables.Table
	}
	gens := []gen{
		{"table1", func() *tables.Table { return tables.Table1() }},
		{"table2", func() *tables.Table { return tables.Table2() }},
		{"table3", func() *tables.Table { return tables.Table3() }},
		{"table4", func() *tables.Table { return tables.Table4() }},
		{"table5", func() *tables.Table { return tables.Table5() }},
		{"table6", func() *tables.Table { return tables.Table6() }},
		{"table7", func() *tables.Table { return tables.Table7() }},
		{"table8", func() *tables.Table { return tables.Table8() }},
		{"supplement", func() *tables.Table { return tables.SectionThreeThree() }},
	}
	if testing.Short() {
		gens = gens[:3]
	}
	for _, g := range gens {
		g := g
		t.Run(g.name, func(t *testing.T) {
			ref := g.get()
			if len(ref.Errors) != 0 {
				t.Fatalf("baseline has errors: %v", ref.Errors)
			}
			path := filepath.Join(t.TempDir(), "ckpt.jsonl")
			ck, err := tables.OpenCheckpoint(path, tables.JournalSignature())
			if err != nil {
				t.Fatal(err)
			}
			// Journal a deterministic, seed-chosen half of the cells —
			// the shape an interrupted run leaves behind.
			i := 0
			for _, row := range ref.Rows {
				for _, v := range row.Rates {
					if !math.IsNaN(v) && faultinject.Rand(chaosSeed, uint64(ref.Number), uint64(i))%2 == 0 {
						ck.Record(ref.Number, i, v)
					}
					i++
				}
			}
			if err := ck.Close(); err != nil {
				t.Fatal(err)
			}

			ck, err = tables.OpenCheckpoint(path, tables.JournalSignature())
			if err != nil {
				t.Fatal(err)
			}
			tables.SetCheckpoint(ck)
			defer tables.SetCheckpoint(nil)
			got := g.get()
			if err := ck.Close(); err != nil {
				t.Fatal(err)
			}
			if got.Render() != ref.Render() {
				t.Errorf("resumed render differs from the uninterrupted baseline:\n--- want\n%s--- got\n%s",
					ref.Render(), got.Render())
			}
			if want := fmt.Sprint(ref.Columns); fmt.Sprint(got.Columns) != want {
				t.Errorf("columns drifted on resume: %v vs %v", got.Columns, want)
			}
		})
	}
}
