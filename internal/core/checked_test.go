package core

import (
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"mfup/internal/asm"
	"mfup/internal/bus"
	"mfup/internal/emu"
	"mfup/internal/isa"
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

// livelockTrace loads, assembles, and traces the committed watchdog
// fixture: a loop whose iterations form one long serial dependence
// chain through memory (see testdata/livelock.cal).
func livelockTrace(t *testing.T) *trace.Trace {
	t.Helper()
	src, err := os.ReadFile("../../testdata/livelock.cal")
	if err != nil {
		t.Fatalf("reading fixture: %v", err)
	}
	p, err := asm.Assemble("livelock", string(src))
	if err != nil {
		t.Fatalf("assembling fixture: %v", err)
	}
	tr, err := emu.New(0).Run(p)
	if err != nil {
		t.Fatalf("tracing fixture: %v", err)
	}
	return tr
}

// everyMachine returns one instance of every machine model under cfg.
func everyMachine(cfg Config) []Machine {
	w := cfg.WithIssue(2, bus.BusN)
	return []Machine{
		must(NewBasic(Simple, cfg)),
		must(NewBasic(SerialMemory, cfg)),
		must(NewBasic(NonSegmented, cfg)),
		must(NewBasic(CRAYLike, cfg)),
		must(NewScoreboard(cfg)),
		must(NewTomasulo(cfg)),
		must(NewMultiIssue(w)),
		must(NewMultiIssueOOO(w)),
		must(NewRUU(w.WithRUU(10))),
		must(NewVector(cfg)),
	}
}

// TestCycleBudgetFiresOnEveryMachine: the committed livelock fixture
// must terminate via the watchdog on every machine model, with a
// structured error naming the machine, the trace, and the cycle.
func TestCycleBudgetFiresOnEveryMachine(t *testing.T) {
	tr := livelockTrace(t)
	const budget = 500
	for _, m := range everyMachine(M11BR5) {
		_, err := m.RunChecked(tr, Limits{MaxCycles: budget})
		if err == nil {
			t.Errorf("%s: ran to completion under a %d-cycle budget", m.Name(), budget)
			continue
		}
		var serr *SimError
		if !errors.As(err, &serr) {
			t.Errorf("%s: error type %T, want *SimError", m.Name(), err)
			continue
		}
		if serr.Kind != simerr.KindCycleBudget {
			t.Errorf("%s: kind %v, want KindCycleBudget", m.Name(), serr.Kind)
		}
		if serr.Machine != m.Name() {
			t.Errorf("%s: error names machine %q", m.Name(), serr.Machine)
		}
		if serr.Trace != tr.Name {
			t.Errorf("%s: error names trace %q, want %q", m.Name(), serr.Trace, tr.Name)
		}
		if serr.Cycle <= budget {
			t.Errorf("%s: reported cycle %d, want > %d", m.Name(), serr.Cycle, budget)
		}
	}
}

// TestStallWatchdogFiresOnCycleSteppedMachines: under an enormous
// memory latency the cycle-stepped machines spin through empty cycles
// waiting for far-future completions; the no-forward-progress
// watchdog must cut them off with a snapshot of the stuck
// instructions.
func TestStallWatchdogFiresOnCycleSteppedMachines(t *testing.T) {
	tr := livelockTrace(t)
	cfg := Config{MemLatency: 1 << 26, BranchLatency: 5}
	w := cfg.WithIssue(2, bus.BusN)
	const stall = 10_000
	for _, m := range []Machine{
		must(NewTomasulo(cfg)),
		must(NewMultiIssueOOO(w)),
		must(NewRUU(w.WithRUU(10))),
	} {
		_, err := m.RunChecked(tr, Limits{StallCycles: stall})
		if err == nil {
			t.Errorf("%s: no stall under 2^26-cycle memory latency", m.Name())
			continue
		}
		var serr *SimError
		if !errors.As(err, &serr) {
			t.Errorf("%s: error type %T, want *SimError", m.Name(), err)
			continue
		}
		if serr.Kind != simerr.KindStall {
			t.Errorf("%s: kind %v, want KindStall (%v)", m.Name(), serr.Kind, serr)
		}
		if serr.Machine != m.Name() || serr.Trace != tr.Name {
			t.Errorf("%s: error names (%q, %q)", m.Name(), serr.Machine, serr.Trace)
		}
		if len(serr.InFlight) == 0 {
			t.Errorf("%s: stall error carries no in-flight snapshot", m.Name())
		}
	}
}

// TestDeadlineFires: an already-expired wall-clock deadline aborts a
// checked run with KindDeadline.
func TestDeadlineFires(t *testing.T) {
	tr := livelockTrace(t)
	m := must(NewBasic(CRAYLike, M11BR5))
	_, err := m.RunChecked(tr, Limits{Deadline: time.Now().Add(-time.Second)})
	var serr *SimError
	if !errors.As(err, &serr) || serr.Kind != simerr.KindDeadline {
		t.Fatalf("RunChecked with expired deadline = %v, want KindDeadline", err)
	}
}

// TestZeroLimitsMatchDefaultLimits: on every machine and base
// config, a run under zero Limits and one under DefaultLimits give the
// same result and no error — the production defaults never fire on a
// healthy run. This is the healthy-path byte-identity guarantee at the
// Result level.
func TestZeroLimitsMatchDefaultLimits(t *testing.T) {
	tr := livelockTrace(t)
	for _, cfg := range BaseConfigs() {
		for _, m := range everyMachine(cfg) {
			want, err := m.RunChecked(tr, Limits{})
			if err != nil {
				t.Errorf("%s %s: zero limits: %v", m.Name(), cfg.Name(), err)
				continue
			}
			got, err := m.RunChecked(tr, DefaultLimits())
			if err != nil {
				t.Errorf("%s %s: DefaultLimits fired on a healthy run: %v", m.Name(), cfg.Name(), err)
			} else if got != want {
				t.Errorf("%s %s: DefaultLimits changed the result: %+v != %+v", m.Name(), cfg.Name(), got, want)
			}
		}
	}
}

// TestCheckedConstructorsRejectBadConfigs: every constructor checks
// its configuration and returns an error, never a panic, on one it
// cannot build — one that is structurally impossible or past a
// Config.Validate bound.
func TestCheckedConstructorsRejectBadConfigs(t *testing.T) {
	bad := Config{MemLatency: 0, BranchLatency: 5}
	zeroUnits := Config{MemLatency: 11, BranchLatency: 5, IssueUnits: 0}
	var overLat, overCopies Config
	overLat.FULat[isa.FloatMul] = MaxLatency + 1
	overCopies.FUCount[isa.FloatMul] = MaxUnitCopies + 1
	for _, tc := range []struct {
		name  string
		build func() (Machine, error)
		want  string // substring of the error
	}{
		{"basic bad latency", func() (Machine, error) { return NewBasic(CRAYLike, bad) }, "memory latency must be positive"},
		{"basic bad org", func() (Machine, error) { return NewBasic(Organization(99), M11BR5) }, "unknown organization"},
		{"scoreboard", func() (Machine, error) { return NewScoreboard(bad) }, "memory latency"},
		{"tomasulo", func() (Machine, error) { return NewTomasulo(bad) }, "memory latency"},
		{"multi zero units", func() (Machine, error) { return NewMultiIssue(zeroUnits) }, "IssueUnits >= 1"},
		{"ooo zero units", func() (Machine, error) { return NewMultiIssueOOO(zeroUnits) }, "IssueUnits >= 1"},
		{"ruu size < units", func() (Machine, error) { return NewRUU(M11BR5.WithIssue(4, bus.BusN).WithRUU(2)) }, "RUUSize >= IssueUnits"},
		{"vector bad latency", func() (Machine, error) { return NewVector(bad) }, "memory latency"},
		{"multi bad interlink", func() (Machine, error) { return NewMultiIssue(M11BR5.WithIssue(2, bus.Kind(99))) }, "unknown interconnect"},

		// The construction bounds.
		{"cray memory latency past bound", func() (Machine, error) {
			return NewBasic(CRAYLike, Config{MemLatency: MaxLatency + 1, BranchLatency: 5})
		}, "exceeds the limit"},
		{"scoreboard branch latency past bound", func() (Machine, error) {
			return NewScoreboard(Config{MemLatency: 11, BranchLatency: MaxLatency + 1})
		}, "exceeds the limit"},
		{"vector latency override past bound", func() (Machine, error) {
			c := overLat
			c.MemLatency, c.BranchLatency = 11, 5
			return NewVector(c)
		}, "exceeds the limit"},
		{"multi width past bound", func() (Machine, error) {
			return NewMultiIssue(M11BR5.WithIssue(MaxIssueUnits+1, bus.BusN))
		}, "exceed the limit"},
		{"ruu size past bound", func() (Machine, error) {
			return NewRUU(M11BR5.WithIssue(4, bus.BusN).WithRUU(MaxRUUSize + 1))
		}, "exceeds the limit"},
		{"tomasulo stations past bound", func() (Machine, error) { return NewTomasulo(M11BR5.WithRUU(MaxRUUSize + 1)) }, "exceeds the limit"},
		{"ooo banks past bound", func() (Machine, error) {
			return NewMultiIssueOOO(M11BR5.WithIssue(2, bus.BusN).WithMemBanks(MaxMemBanks + 1))
		}, "exceeds the limit"},
		{"cray copies past bound", func() (Machine, error) {
			c := overCopies
			c.MemLatency, c.BranchLatency = 11, 5
			return NewBasic(CRAYLike, c)
		}, "exceeds the limit"},
	} {
		m, err := tc.build()
		if err == nil {
			t.Errorf("%s: no error (got machine %v)", tc.name, m.Name())
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}
