package core

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mfup/internal/bus"
	"mfup/internal/events"
	"mfup/internal/isa"
	"mfup/internal/loops"
	"mfup/internal/probe"
	"mfup/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace fixtures")

// traceMachines is the event-recording test matrix: every machine
// model, including the banked-memory and perfect-branch extensions.
func traceMachines() []func() Machine {
	return []func() Machine{
		func() Machine { return must(NewBasic(Simple, M11BR5)) },
		func() Machine { return must(NewBasic(SerialMemory, M11BR5)) },
		func() Machine { return must(NewBasic(NonSegmented, M5BR2)) },
		func() Machine { return must(NewBasic(CRAYLike, M11BR5)) },
		func() Machine { return must(NewBasic(CRAYLike, M11BR5.WithPerfectBranches())) },
		func() Machine { return must(NewBasic(CRAYLike, M11BR5.WithMemBanks(4))) },
		func() Machine { return must(NewScoreboard(M11BR5)) },
		func() Machine { return must(NewTomasulo(M5BR5)) },
		func() Machine { return must(NewMultiIssue(M11BR5.WithIssue(4, bus.BusN))) },
		func() Machine { return must(NewMultiIssue(M5BR2.WithIssue(3, bus.Bus1))) },
		func() Machine { return must(NewMultiIssueOOO(M11BR5.WithIssue(4, bus.BusN))) },
		func() Machine { return must(NewMultiIssueOOO(M5BR2.WithIssue(3, bus.Bus1))) },
		func() Machine { return must(NewMultiIssueOOO(M11BR5.WithIssue(4, bus.BusN).WithMemBanks(2))) },
		func() Machine { return must(NewRUU(M11BR5.WithIssue(2, bus.BusN).WithRUU(16))) },
		func() Machine { return must(NewRUU(M5BR5.WithIssue(4, bus.Bus1).WithRUU(30))) },
		func() Machine { return must(NewVector(M11BR5)) },
	}
}

// TestTraceInvariantAllMachines runs every machine over every loop it
// accepts — bare, then with a recorder, then with recorder and probe
// together — and checks that recording never changes the result and
// that the recorded lifecycle is internally consistent: one issue per
// instruction, pipeline-ordered timestamps per instruction, and an
// event census that agrees with the probe's slot ledger.
func TestTraceInvariantAllMachines(t *testing.T) {
	for _, k := range loops.All() {
		tr := k.SharedTrace()
		for _, mk := range traceMachines() {
			m := mk()
			bare, err := m.RunChecked(tr, Limits{})
			if err != nil {
				continue // scalar machine rejecting a vector trace
			}
			rec := events.NewRecorder(0)
			m.SetRecorder(rec)
			got, err := m.RunChecked(tr, Limits{})
			if err != nil {
				t.Fatalf("%s on %s: recorded run failed: %v", m.Name(), tr.Name, err)
			}
			if got != bare {
				t.Errorf("%s on %s: recorded result %+v != bare %+v", m.Name(), tr.Name, got, bare)
			}
			runs := rec.Runs()
			if len(runs) != 1 {
				t.Fatalf("%s on %s: %d runs recorded, want 1", m.Name(), tr.Name, len(runs))
			}
			checkRunEvents(t, m.Name(), tr, &runs[0], bare)

			// Probe and recorder together: still the same result, and
			// the issue-event census matches the probe's ledger.
			var c probe.Counters
			m.SetProbe(&c)
			rec.Reset()
			both, err := m.RunChecked(tr, Limits{})
			m.SetProbe(nil)
			m.SetRecorder(nil)
			if err != nil {
				t.Fatalf("%s on %s: probed+recorded run failed: %v", m.Name(), tr.Name, err)
			}
			if both != bare {
				t.Errorf("%s on %s: probed+recorded result %+v != bare %+v", m.Name(), tr.Name, both, bare)
			}
			if err := c.Check(); err != nil {
				t.Errorf("%s on %s: %v", m.Name(), tr.Name, err)
			}
			if issues := countKind(&rec.Runs()[0], events.Issue); issues != c.Issued {
				t.Errorf("%s on %s: %d issue events vs probe ledger's %d issued",
					m.Name(), tr.Name, issues, c.Issued)
			}
			if resolves := countKind(&rec.Runs()[0], events.BranchResolve); resolves != c.Branches {
				t.Errorf("%s on %s: %d branch-resolve events vs probe's %d resolutions",
					m.Name(), tr.Name, resolves, c.Branches)
			}
		}
	}
}

func countKind(run *events.Run, k events.Kind) int64 {
	var n int64
	for _, ev := range run.Events {
		if ev.Kind == k {
			n++
		}
	}
	return n
}

// checkRunEvents verifies one uncapped run's internal consistency
// against the trace it recorded and the bare result.
func checkRunEvents(t *testing.T, machine string, tr *trace.Trace, run *events.Run, bare Result) {
	t.Helper()
	if run.Dropped != 0 {
		t.Fatalf("%s on %s: %d events dropped under the default cap", machine, tr.Name, run.Dropped)
	}
	if run.Machine != machine || run.Trace != tr.Name {
		t.Errorf("%s on %s: run labeled %q on %q", machine, tr.Name, run.Machine, run.Trace)
	}
	if run.Cycles != bare.Cycles {
		t.Errorf("%s on %s: run records %d cycles, result says %d", machine, tr.Name, run.Cycles, bare.Cycles)
	}

	type lifecycle struct {
		fetch, alloc, issue, exec, execEnd, bus, wb, resolve, commit int64
		issues                                                       int
	}
	perSeq := map[int64]*lifecycle{}
	get := func(seq int64) *lifecycle {
		lc, ok := perSeq[seq]
		if !ok {
			lc = &lifecycle{fetch: -1, alloc: -1, issue: -1, exec: -1, execEnd: -1, bus: -1, wb: -1, resolve: -1, commit: -1}
			perSeq[seq] = lc
		}
		return lc
	}
	for _, ev := range run.Events {
		if ev.Seq < 0 || ev.Seq >= int64(len(tr.Ops)) {
			t.Fatalf("%s on %s: event for nonexistent instruction #%d", machine, tr.Name, ev.Seq)
		}
		if ev.Cycle < 0 || ev.Cycle > bare.Cycles {
			t.Errorf("%s on %s: #%d %s at cycle %d outside [0, %d]",
				machine, tr.Name, ev.Seq, ev.Kind, ev.Cycle, bare.Cycles)
		}
		lc := get(ev.Seq)
		switch ev.Kind {
		case events.Fetch:
			lc.fetch = ev.Cycle
		case events.Alloc:
			lc.alloc = ev.Cycle
		case events.Issue:
			lc.issue = ev.Cycle
			lc.issues++
		case events.Exec:
			lc.exec, lc.execEnd = ev.Cycle, ev.Cycle+ev.Dur
		case events.ResultBus:
			lc.bus = ev.Cycle
		case events.Writeback:
			lc.wb = ev.Cycle
		case events.BranchResolve:
			lc.resolve = ev.Cycle
		case events.Commit:
			lc.commit = ev.Cycle
		}
	}

	for i := range tr.Ops {
		seq := tr.Ops[i].Seq
		lc, ok := perSeq[seq]
		if !ok || lc.issues == 0 {
			t.Fatalf("%s on %s: instruction #%d never issued in the event record", machine, tr.Name, seq)
		}
		if lc.issues != 1 {
			t.Errorf("%s on %s: #%d issued %d times", machine, tr.Name, seq, lc.issues)
		}
		ordered := func(what string, before, after int64) {
			if before >= 0 && after >= 0 && before > after {
				t.Errorf("%s on %s: #%d %s out of order (%d > %d)", machine, tr.Name, seq, what, before, after)
			}
		}
		ordered("fetch/issue", lc.fetch, lc.issue)
		ordered("alloc/issue", lc.alloc, lc.issue)
		ordered("issue/exec", lc.issue, lc.exec)
		ordered("exec/writeback", lc.exec, lc.wb)
		ordered("exec-end/writeback", lc.execEnd, lc.wb)
		ordered("issue/result-bus", lc.issue, lc.bus)
		ordered("writeback/commit", lc.wb, lc.commit)
	}
}

// TestTraceGoldenChromeCRAY locks the Perfetto/Chrome export format:
// a small deterministic kernel on the CRAY-like machine must encode
// byte-for-byte as the checked-in fixture. Regenerate with
// `go test ./internal/core -run TestTraceGoldenChromeCRAY -update`
// after a deliberate format change.
func TestTraceGoldenChromeCRAY(t *testing.T) {
	// A miniature loop body: load, dependent multiply-add chain, store,
	// loop branch — enough to exercise memory, two float units, and the
	// branch track.
	b := new(builder).
		load(isa.S(1), 8).
		op(isa.OpFMul, isa.S(2), isa.S(1), isa.S(1)).
		op(isa.OpFAdd, isa.S(3), isa.S(2), isa.S(1)).
		store(isa.A(1), isa.S(3), 16).
		op(isa.OpAAdd, isa.A(2), isa.A(2), isa.A(1)).
		branch(isa.OpJAN, true)
	tr := b.trace()
	tr.Name = "golden"

	m := must(NewBasic(CRAYLike, M11BR5))
	rec := events.NewRecorder(64)
	m.SetRecorder(rec)
	must(m.RunChecked(tr, Limits{}))
	m.SetRecorder(nil)

	var out strings.Builder
	if err := events.WriteChrome(&out, rec); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "trace_cray.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if out.String() != string(want) {
		t.Errorf("Chrome trace drifted from the golden fixture (regenerate with -update if deliberate)\ngot:\n%s\nwant:\n%s",
			out.String(), want)
	}
}

// BenchmarkTraceOverhead records the 4-wide out-of-order machine on
// LFK 1 with no observer (nil) against the same run with a recorder
// attached, both on the machine's one loop, as BenchmarkProbeOverhead
// does for the probe layer. CI runs it as a record; nothing compares
// the numbers.
func BenchmarkTraceOverhead(b *testing.B) {
	k, err := loops.Get(1)
	if err != nil {
		b.Fatal(err)
	}
	tr := k.SharedTrace()
	b.Run("nil", func(b *testing.B) {
		m := must(NewMultiIssueOOO(M11BR5.WithIssue(4, bus.BusN)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			must(m.RunChecked(tr, Limits{}))
		}
	})
	b.Run("recorder", func(b *testing.B) {
		m := must(NewMultiIssueOOO(M11BR5.WithIssue(4, bus.BusN)))
		rec := events.NewRecorder(0)
		m.SetRecorder(rec)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec.Reset()
			must(m.RunChecked(tr, Limits{}))
		}
	})
}
