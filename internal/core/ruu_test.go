package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mfup/internal/bus"
	"mfup/internal/isa"
	"mfup/internal/loops"
	"mfup/internal/trace"
)

func cfg115(n, size int, kind bus.Kind) Config {
	return Config{MemLatency: 11, BranchLatency: 5, IssueUnits: n, RUUSize: size, Bus: kind}
}

func mkOp(seq int, code isa.Opcode, dst, s1, s2 isa.Reg) trace.Op {
	return trace.Op{Seq: int64(seq), Code: code, Unit: code.Unit(),
		Parcels: int8(code.Parcels()), Dst: dst, Src1: s1, Src2: s2}
}

func TestRUUSingleInstruction(t *testing.T) {
	tr := &trace.Trace{Ops: []trace.Op{mkOp(0, isa.OpFAdd, isa.S(1), isa.S(0), isa.S(0))}}
	// Issue at 0, dispatch at 1, result at 7.
	if got := cycles(t, must(NewRUU(cfg115(1, 4, bus.Bus1))), tr); got != 7 {
		t.Errorf("cycles = %d, want 7", got)
	}
}

func TestRUUChainThroughBypass(t *testing.T) {
	tr := &trace.Trace{Ops: []trace.Op{
		mkOp(0, isa.OpFAdd, isa.S(1), isa.S(0), isa.S(0)), // dispatch 1, done 7
		mkOp(1, isa.OpFAdd, isa.S(2), isa.S(1), isa.S(1)), // wakes at 7, done 13
	}}
	if got := cycles(t, must(NewRUU(cfg115(2, 8, bus.BusN))), tr); got != 13 {
		t.Errorf("cycles = %d, want 13", got)
	}
}

func TestRUUIndependentOpsOverlap(t *testing.T) {
	tr := &trace.Trace{Ops: []trace.Op{
		mkOp(0, isa.OpFAdd, isa.S(1), isa.S(0), isa.S(0)),
		mkOp(1, isa.OpFMul, isa.S(2), isa.S(0), isa.S(0)),
	}}
	// Both issue at 0, dispatch at 1; FMul completes at 8.
	if got := cycles(t, must(NewRUU(cfg115(2, 8, bus.BusN))), tr); got != 8 {
		t.Errorf("cycles = %d, want 8", got)
	}
}

func TestRUUIssueWidthLimits(t *testing.T) {
	// Four independent ops in distinct units. N=1: issue 0,1,2,3;
	// N=4: all issue at 0. The last dispatch difference shows up in
	// total cycles.
	ops := []trace.Op{
		mkOp(0, isa.OpFAdd, isa.S(1), isa.S(0), isa.S(0)),
		mkOp(1, isa.OpFMul, isa.S(2), isa.S(0), isa.S(0)),
		mkOp(2, isa.OpAAdd, isa.A(1), isa.A(2), isa.A(3)),
		mkOp(3, isa.OpSAdd, isa.S(3), isa.S(0), isa.S(0)),
	}
	narrow := cycles(t, must(NewRUU(cfg115(1, 8, bus.Bus1))), &trace.Trace{Ops: ops})
	wide := cycles(t, must(NewRUU(cfg115(4, 8, bus.BusN))), &trace.Trace{Ops: ops})
	if wide >= narrow {
		t.Errorf("wide issue (%d cycles) not faster than narrow (%d)", wide, narrow)
	}
	if wide != 8 { // FMul: issue 0, dispatch 1, done 8
		t.Errorf("wide = %d cycles, want 8", wide)
	}
}

func TestRUUFullBackpressure(t *testing.T) {
	// Eight independent 6-cycle adds: with 16 slots they pipeline one
	// per cycle; with 2 slots only two fit in flight across the
	// 6-cycle latency, so issue stalls on commits and throughput
	// drops to about one per three cycles.
	var ops []trace.Op
	for i := 0; i < 8; i++ {
		ops = append(ops, mkOp(i, isa.OpFAdd, isa.S(1+i%7), isa.S(0), isa.S(0)))
	}
	small := cycles(t, must(NewRUU(cfg115(1, 2, bus.Bus1))), &trace.Trace{Ops: ops})
	big := cycles(t, must(NewRUU(cfg115(1, 16, bus.Bus1))), &trace.Trace{Ops: ops})
	if small <= big+4 {
		t.Errorf("2-entry RUU (%d cycles) should be clearly slower than 16-entry (%d)", small, big)
	}
}

func TestRUUInOrderCommit(t *testing.T) {
	// The transfer behind the reciprocal finishes early but must not
	// free its slot before the reciprocal commits; with one slot per
	// bank the third op waits for the commit chain.
	ops := []trace.Op{
		mkOp(0, isa.OpRecip, isa.S(1), isa.S(0), isa.NoReg), // done 15
		mkOp(1, isa.OpSImm, isa.S(2), isa.NoReg, isa.NoReg), // done 2, commits >= 15
		mkOp(2, isa.OpSImm, isa.S(3), isa.NoReg, isa.NoReg),
	}
	got := cycles(t, must(NewRUU(cfg115(1, 2, bus.Bus1))), &trace.Trace{Ops: ops})
	// Recip: issue 0, dispatch 1, done 15, commits 15. SImm1: issue 1
	// done 3. SImm2 needs a slot: only at 15 (recip commit) -> issue
	// 15, dispatch 16, done 17.
	if got != 17 {
		t.Errorf("cycles = %d, want 17", got)
	}
}

func TestRUUBranchStallsIssue(t *testing.T) {
	ops := []trace.Op{
		{Seq: 0, Code: isa.OpJ, Unit: isa.Branch, Parcels: 2, Dst: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg, Taken: true},
		mkOp(1, isa.OpSImm, isa.S(1), isa.NoReg, isa.NoReg),
	}
	got := cycles(t, must(NewRUU(cfg115(4, 16, bus.BusN))), &trace.Trace{Ops: ops})
	// Branch at 0 resolves at 5; transfer issues 5, dispatches 6, done 7.
	if got != 7 {
		t.Errorf("cycles = %d, want 7", got)
	}
}

func TestRUUStoreLoadDependence(t *testing.T) {
	st := mkOp(0, isa.OpStoreS, isa.NoReg, isa.A(1), isa.S(1))
	st.Addr = 64
	ldSame := mkOp(1, isa.OpLoadS, isa.S(2), isa.A(1), isa.NoReg)
	ldSame.Addr = 64
	ldOther := mkOp(2, isa.OpLoadS, isa.S(3), isa.A(1), isa.NoReg)
	ldOther.Addr = 65

	got := cycles(t, must(NewRUU(cfg115(4, 16, bus.BusN))), &trace.Trace{Ops: []trace.Op{st, ldSame, ldOther}})
	// Store: issue 0, dispatch 1, completes 12. Dependent load wakes
	// at 12, dispatches 12 (bypass), completes 23. Independent load
	// dispatches at 2 (memory unit accepted the store at 1), done 13.
	if got != 23 {
		t.Errorf("cycles = %d, want 23", got)
	}
}

func TestRUUStoreStoreOrdering(t *testing.T) {
	// Two stores to one address may not complete out of order; the
	// second waits on the first even though the memory unit would
	// accept it earlier.
	st1 := mkOp(0, isa.OpStoreS, isa.NoReg, isa.A(1), isa.S(1))
	st1.Addr = 7
	st2 := mkOp(1, isa.OpStoreS, isa.NoReg, isa.A(1), isa.S(2))
	st2.Addr = 7
	got := cycles(t, must(NewRUU(cfg115(2, 8, bus.BusN))), &trace.Trace{Ops: []trace.Op{st1, st2}})
	// st1: dispatch 1, done 12; st2 wakes 12, dispatches 12, done 23.
	if got != 23 {
		t.Errorf("cycles = %d, want 23", got)
	}
}

// TestRUUBadConfigPanics covers the three RUU configurations whose
// constructor once panicked: NewRUU now refuses each with an error
// naming the fault, and building one never panics.
func TestRUUBadConfigPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want string // substring of the error
	}{
		{"zero units", Config{MemLatency: 11, BranchLatency: 5, RUUSize: 8, Bus: bus.Bus1}, "IssueUnits >= 1"},
		{"size too small", Config{MemLatency: 11, BranchLatency: 5, IssueUnits: 4, RUUSize: 2, Bus: bus.BusN}, "RUUSize >= IssueUnits"},
		{"xbar", Config{MemLatency: 11, BranchLatency: 5, IssueUnits: 2, RUUSize: 8, Bus: bus.XBar}, "N-Bus or 1-Bus"},
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: NewRUU panicked: %v", tc.name, r)
				}
			}()
			if _, err := NewRUU(tc.cfg); err == nil {
				t.Errorf("%s: NewRUU accepted the config", tc.name)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
			}
		}()
	}
}

func TestRUUReusable(t *testing.T) {
	tr := &trace.Trace{Ops: []trace.Op{
		mkOp(0, isa.OpFAdd, isa.S(1), isa.S(0), isa.S(0)),
		mkOp(1, isa.OpFMul, isa.S(2), isa.S(1), isa.S(1)),
	}}
	m := must(NewRUU(cfg115(2, 8, bus.BusN)))
	if a, b := must(m.RunChecked(tr, Limits{})).Cycles, must(m.RunChecked(tr, Limits{})).Cycles; a != b {
		t.Errorf("reruns differ: %d vs %d", a, b)
	}
}

// TestRUURandomTracesTerminateAndRespectWidth: random well-formed traces
// always drain, and total cycles are at least the trivial lower bound
// ops/N (issue width) and at least the longest latency used.
func TestRUURandomTracesTerminateAndRespectWidth(t *testing.T) {
	codes := []isa.Opcode{
		isa.OpFAdd, isa.OpFMul, isa.OpAAdd, isa.OpSAdd, isa.OpSImm,
		isa.OpRecip, isa.OpLoadS, isa.OpStoreS, isa.OpJAN,
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		size := n + rng.Intn(40)
		kind := bus.BusN
		if rng.Intn(2) == 0 {
			kind = bus.Bus1
		}
		var ops []trace.Op
		count := 1 + rng.Intn(120)
		for i := 0; i < count; i++ {
			code := codes[rng.Intn(len(codes))]
			var op trace.Op
			switch {
			case code == isa.OpJAN:
				op = trace.Op{Code: code, Dst: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg, Taken: rng.Intn(2) == 0}
				op.Unit, op.Parcels = code.Unit(), int8(code.Parcels())
			case code == isa.OpLoadS:
				op = mkOp(i, code, isa.S(rng.Intn(8)), isa.A(rng.Intn(8)), isa.NoReg)
				op.Addr = int64(rng.Intn(8))
			case code == isa.OpStoreS:
				op = mkOp(i, code, isa.NoReg, isa.A(rng.Intn(8)), isa.S(rng.Intn(8)))
				op.Addr = int64(rng.Intn(8))
			case code == isa.OpSImm:
				op = mkOp(i, code, isa.S(rng.Intn(8)), isa.NoReg, isa.NoReg)
			case code == isa.OpRecip:
				op = mkOp(i, code, isa.S(rng.Intn(8)), isa.S(rng.Intn(8)), isa.NoReg)
			case code == isa.OpAAdd:
				op = mkOp(i, code, isa.A(rng.Intn(8)), isa.A(rng.Intn(8)), isa.A(rng.Intn(8)))
			default:
				op = mkOp(i, code, isa.S(rng.Intn(8)), isa.S(rng.Intn(8)), isa.S(rng.Intn(8)))
			}
			op.Seq = int64(i)
			ops = append(ops, op)
		}
		m := must(NewRUU(Config{MemLatency: 11, BranchLatency: 5, IssueUnits: n, RUUSize: size, Bus: kind}))
		cycles := must(m.RunChecked(&trace.Trace{Ops: ops}, Limits{})).Cycles
		lower := int64((count + n - 1) / n)
		return cycles >= lower
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestRUULatenciesPast64 runs the RUU with unit latencies of 65 cycles
// and more, which book completions and result-bus slots further ahead
// than a 64-slot ring holds. Every run must complete under the stall
// watchdog, with the cycle counts of a model whose rings are far
// larger than any latency here.
func TestRUULatenciesPast64(t *testing.T) {
	kernel := func(n int) *trace.Trace {
		k, err := loops.Get(n)
		if err != nil {
			t.Fatal(err)
		}
		return k.SharedTrace()
	}
	lfk1, lfk5 := kernel(1), kernel(5)
	fulat70 := M11BR5.WithIssue(4, bus.BusN).WithRUU(50)
	fulat70.FULat[isa.FloatAdd] = 70
	for _, tc := range []struct {
		cfg        Config
		lfk1, lfk5 int64
	}{
		{Config{MemLatency: 65, BranchLatency: 5}.WithIssue(4, bus.BusN).WithRUU(50), 3991, 2593},
		{Config{MemLatency: 100, BranchLatency: 5}.WithIssue(4, bus.BusN).WithRUU(50), 5746, 3783},
		{Config{MemLatency: 200, BranchLatency: 5}.WithIssue(4, bus.BusN).WithRUU(50), 10758, 7183},
		{fulat70, 4487, 7747},
		{Config{MemLatency: 200, BranchLatency: 5}.WithIssue(2, bus.Bus1).WithRUU(50), 9059, 7081},
	} {
		m, err := NewRUU(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range []struct {
			tr   *trace.Trace
			want int64
		}{{lfk1, tc.lfk1}, {lfk5, tc.lfk5}} {
			r, err := m.RunChecked(run.tr, Limits{StallCycles: 100_000})
			if err != nil {
				t.Errorf("%s, %s: %v", m.Name(), tc.cfg.Name(), err)
				continue
			}
			if r.Cycles != run.want {
				t.Errorf("%s, %s on %s: %d cycles, want %d", m.Name(), tc.cfg.Name(), run.tr.Name, r.Cycles, run.want)
			}
		}
	}
}
