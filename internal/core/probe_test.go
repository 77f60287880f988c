package core

import (
	"testing"

	"mfup/internal/bus"
	"mfup/internal/isa"
	"mfup/internal/loops"
	"mfup/internal/probe"
)

// countersFor runs b's trace on m twice — bare, then with a fresh
// Counters attached — and verifies the slot invariant plus that
// attaching the probe did not change the result.
func countersFor(t *testing.T, m Machine, b *builder) *probe.Counters {
	t.Helper()
	tr := b.trace()
	bare := must(m.RunChecked(tr, Limits{}))
	var c probe.Counters
	m.SetProbe(&c)
	got := must(m.RunChecked(tr, Limits{}))
	m.SetProbe(nil)
	if got != bare {
		t.Fatalf("%s: probed result %+v differs from unprobed %+v", m.Name(), got, bare)
	}
	if err := c.Check(); err != nil {
		t.Fatalf("%s: %v", m.Name(), err)
	}
	return &c
}

func TestProbeCRAYLikeRAWChain(t *testing.T) {
	// Dependent FloatAdds issue at 0 and 6, finish at 12: cycles 1-5
	// are RAW stalls, 7-11 the drain.
	b := new(builder).
		op(isa.OpFAdd, isa.S(1), isa.S(0), isa.S(0)).
		op(isa.OpFAdd, isa.S(2), isa.S(1), isa.S(1))
	c := countersFor(t, must(NewBasic(CRAYLike, M11BR5)), b)
	if c.Issued != 2 || c.Slots != 12 {
		t.Fatalf("issued %d slots %d, want 2/12", c.Issued, c.Slots)
	}
	if c.Stalls[probe.ReasonRAW] != 5 || c.Stalls[probe.ReasonDrain] != 5 {
		t.Errorf("RAW %d drain %d, want 5/5 (breakdown: %s)",
			c.Stalls[probe.ReasonRAW], c.Stalls[probe.ReasonDrain], c)
	}
	if c.FU[isa.FloatAdd].Ops != 2 || c.FU[isa.FloatAdd].Busy != 12 {
		t.Errorf("FloatAdd stat %+v, want 2 ops / 12 busy", c.FU[isa.FloatAdd])
	}
}

func TestProbeCRAYLikeWAWPair(t *testing.T) {
	// The transfer rewrites the add's destination: blocked cycles 1-5
	// are WAW, and nothing drains (the transfer completes last, at 7).
	b := new(builder).
		op(isa.OpFAdd, isa.S(1), isa.S(0), isa.S(0)).
		op(isa.OpSImm, isa.S(1), isa.NoReg, isa.NoReg)
	c := countersFor(t, must(NewBasic(CRAYLike, M11BR5)), b)
	if c.Stalls[probe.ReasonWAW] != 5 {
		t.Errorf("WAW stalls = %d, want 5 (breakdown: %s)", c.Stalls[probe.ReasonWAW], c)
	}
	if c.Stalls[probe.ReasonRAW] != 0 {
		t.Errorf("RAW stalls = %d, want 0", c.Stalls[probe.ReasonRAW])
	}
}

func TestProbeSimpleExclusiveIsStructural(t *testing.T) {
	// Two independent FloatAdds on the Simple machine: the second
	// waits out the first's entire execution — structural, not a
	// hazard. Issues at 0 and 6, done 12; no drain.
	b := new(builder).
		op(isa.OpFAdd, isa.S(1), isa.S(0), isa.S(0)).
		op(isa.OpFAdd, isa.S(2), isa.S(0), isa.S(0))
	c := countersFor(t, must(NewBasic(Simple, M11BR5)), b)
	if c.Stalls[probe.ReasonStructFU] != 10 || c.Stalls[probe.ReasonDrain] != 0 {
		t.Errorf("structural %d drain %d, want 10/0 (breakdown: %s)",
			c.Stalls[probe.ReasonStructFU], c.Stalls[probe.ReasonDrain], c)
	}
}

func TestProbeBranchShadow(t *testing.T) {
	// A lone branch occupies its issue slot and shadows the next
	// brLat-1 cycles; BR5 gives 4 branch-stall slots and one
	// resolution.
	b := new(builder).branch(isa.OpJ, true)
	c := countersFor(t, must(NewBasic(CRAYLike, M11BR5)), b)
	if c.Stalls[probe.ReasonBranch] != 4 {
		t.Errorf("branch stalls = %d, want 4 (breakdown: %s)", c.Stalls[probe.ReasonBranch], c)
	}
	if c.Branches != 1 {
		t.Errorf("branch resolutions = %d, want 1", c.Branches)
	}
}

func TestProbeScoreboardHidesRAW(t *testing.T) {
	// The CDC 6600 discipline issues past a RAW hazard (the wait moves
	// to the unit), so the dependent-add chain shows no issue-stage
	// RAW stalls — the lost cycles surface as drain instead.
	b := new(builder).
		op(isa.OpFAdd, isa.S(1), isa.S(0), isa.S(0)).
		op(isa.OpFAdd, isa.S(2), isa.S(1), isa.S(1))
	c := countersFor(t, must(NewScoreboard(M11BR5)), b)
	if c.Stalls[probe.ReasonRAW] != 0 {
		t.Errorf("RAW stalls = %d, want 0 (breakdown: %s)", c.Stalls[probe.ReasonRAW], c)
	}
	if c.Stalls[probe.ReasonDrain] != 10 {
		t.Errorf("drain = %d, want 10 (breakdown: %s)", c.Stalls[probe.ReasonDrain], c)
	}

	// A WAW pair still blocks at issue.
	b = new(builder).
		op(isa.OpFAdd, isa.S(1), isa.S(0), isa.S(0)).
		op(isa.OpSImm, isa.S(1), isa.NoReg, isa.NoReg)
	c = countersFor(t, must(NewScoreboard(M11BR5)), b)
	if c.Stalls[probe.ReasonWAW] == 0 {
		t.Errorf("WAW pair shows no WAW stalls (breakdown: %s)", c)
	}
}

func TestProbeResultBusContention(t *testing.T) {
	// An AddrMul and a FloatAdd — distinct units, both latency 6 — in
	// one 2-wide buffer: with a bus per station both issue at cycle 0;
	// with one shared bus their results would collide at cycle 6, so
	// the FloatAdd waits a cycle at issue.
	mk := func() *builder {
		return new(builder).
			op(isa.OpAMul, isa.A(2), isa.A(1), isa.A(1)).
			op(isa.OpFAdd, isa.S(2), isa.S(0), isa.S(0))
	}
	cn := countersFor(t, must(NewMultiIssue(M11BR5.WithIssue(2, bus.BusN))), mk())
	c1 := countersFor(t, must(NewMultiIssue(M11BR5.WithIssue(2, bus.Bus1))), mk())
	if cn.Stalls[probe.ReasonResultBus] != 0 {
		t.Errorf("N-Bus shows %d result-bus stalls, want 0 (breakdown: %s)",
			cn.Stalls[probe.ReasonResultBus], cn)
	}
	if c1.Stalls[probe.ReasonResultBus] == 0 {
		t.Errorf("1-Bus shows no result-bus stalls (breakdown: %s)", c1)
	}
}

// TestProbeInvariantAllMachines attaches a Counters to every machine
// model, runs every Livermore loop it accepts, and verifies both the
// slot-accounting invariant and that probing never changes the result.
func TestProbeInvariantAllMachines(t *testing.T) {
	machines := []func() Machine{
		func() Machine { return must(NewBasic(Simple, M11BR5)) },
		func() Machine { return must(NewBasic(SerialMemory, M11BR5)) },
		func() Machine { return must(NewBasic(NonSegmented, M5BR2)) },
		func() Machine { return must(NewBasic(CRAYLike, M11BR5)) },
		func() Machine { return must(NewScoreboard(M11BR5)) },
		func() Machine { return must(NewTomasulo(M5BR5)) },
		func() Machine { return must(NewMultiIssue(M11BR5.WithIssue(4, bus.BusN))) },
		func() Machine { return must(NewMultiIssue(M5BR2.WithIssue(3, bus.Bus1))) },
		func() Machine { return must(NewMultiIssueOOO(M11BR5.WithIssue(4, bus.BusN))) },
		func() Machine { return must(NewMultiIssueOOO(M5BR2.WithIssue(3, bus.Bus1))) },
		func() Machine { return must(NewRUU(M11BR5.WithIssue(2, bus.BusN).WithRUU(16))) },
		func() Machine { return must(NewRUU(M5BR5.WithIssue(4, bus.Bus1).WithRUU(30))) },
		func() Machine { return must(NewVector(M11BR5)) },
		func() Machine { return must(NewBasic(CRAYLike, M11BR5.WithMemBanks(4))) },
		func() Machine { return must(NewMultiIssueOOO(M11BR5.WithIssue(4, bus.BusN).WithMemBanks(2))) },
	}
	for _, k := range loops.All() {
		tr := k.SharedTrace()
		for _, mk := range machines {
			m := mk()
			bare, err := m.RunChecked(tr, Limits{})
			if err != nil {
				continue // scalar machine rejecting a vector trace
			}
			var c probe.Counters
			m.SetProbe(&c)
			got, err := m.RunChecked(tr, Limits{})
			if err != nil {
				t.Fatalf("%s on %s: probed run failed: %v", m.Name(), tr.Name, err)
			}
			if got != bare {
				t.Errorf("%s on %s: probed result %+v != unprobed %+v", m.Name(), tr.Name, got, bare)
			}
			if err := c.Check(); err != nil {
				t.Errorf("%s on %s: %v", m.Name(), tr.Name, err)
			}
			if c.Issued != int64(len(tr.Ops)) {
				t.Errorf("%s on %s: issued %d of %d instructions", m.Name(), tr.Name, c.Issued, len(tr.Ops))
			}
		}
	}
}

// TestProbeAccumulatesOverLoops mirrors how the tables attach one
// Counters to a whole harmonic-mean cell.
func TestProbeAccumulatesOverLoops(t *testing.T) {
	m := must(NewBasic(CRAYLike, M11BR5))
	var c probe.Counters
	m.SetProbe(&c)
	runs := 0
	var cycles int64
	for _, k := range loops.ByClass(loops.Scalar) {
		r := must(m.RunChecked(k.SharedTrace(), Limits{}))
		cycles += r.Cycles
		runs++
	}
	if c.Runs != runs || c.Cycles != cycles {
		t.Fatalf("accumulated %d runs / %d cycles, want %d / %d", c.Runs, c.Cycles, runs, cycles)
	}
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkProbeOverhead records the 4-wide out-of-order machine on
// LFK 1 with no observer (nil) against the same run with Counters
// attached, both on the machine's one loop: what the nil checks cost
// an unobserved run, and what attribution costs an observed one. CI
// runs it as a record; nothing compares the numbers.
func BenchmarkProbeOverhead(b *testing.B) {
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
	b.Run("counters", func(b *testing.B) {
		m := must(NewMultiIssueOOO(M11BR5.WithIssue(4, bus.BusN)))
		var c probe.Counters
		m.SetProbe(&c)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			must(m.RunChecked(tr, Limits{}))
		}
	})
}
