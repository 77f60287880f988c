package core

import (
	"testing"

	"mfup/internal/bus"
	"mfup/internal/isa"
	"mfup/internal/loops"
	"mfup/internal/trace"
)

// builder assembles synthetic traces for exact-cycle tests.
type builder struct {
	ops []trace.Op
}

func (b *builder) push(op trace.Op) *builder {
	op.Seq = int64(len(b.ops))
	op.PC = len(b.ops)
	op.Unit = op.Code.Unit()
	op.Parcels = int8(op.Code.Parcels())
	b.ops = append(b.ops, op)
	return b
}

func (b *builder) op(code isa.Opcode, dst, s1, s2 isa.Reg) *builder {
	return b.push(trace.Op{Code: code, Dst: dst, Src1: s1, Src2: s2})
}

func (b *builder) branch(code isa.Opcode, taken bool) *builder {
	return b.push(trace.Op{Code: code, Dst: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg, Taken: taken})
}

func (b *builder) load(dst isa.Reg, addr int64) *builder {
	return b.push(trace.Op{Code: isa.OpLoadS, Dst: dst, Src1: isa.A(1), Src2: isa.NoReg, Addr: addr})
}

func (b *builder) store(base, data isa.Reg, addr int64) *builder {
	return b.push(trace.Op{Code: isa.OpStoreS, Dst: isa.NoReg, Src1: base, Src2: data, Addr: addr})
}

func (b *builder) trace() *trace.Trace { return &trace.Trace{Name: "micro", Ops: b.ops} }

func cycles(t *testing.T, m Machine, tr *trace.Trace) int64 {
	t.Helper()
	r := must(m.RunChecked(tr, Limits{}))
	if r.Instructions != int64(len(tr.Ops)) {
		t.Fatalf("%s: counted %d instructions, trace has %d", m.Name(), r.Instructions, len(tr.Ops))
	}
	return r.Cycles
}

// ---------------------------------------------------------------------
// Single-issue machines (§3).

func TestCRAYLikeSingleOp(t *testing.T) {
	tr := new(builder).op(isa.OpFAdd, isa.S(1), isa.S(0), isa.S(0)).trace()
	if got := cycles(t, must(NewBasic(CRAYLike, M11BR5)), tr); got != 6 {
		t.Errorf("one FloatAdd = %d cycles, want 6", got)
	}
}

func TestCRAYLikeSegmentedSameUnit(t *testing.T) {
	// Two independent FloatAdds: issue at 0 and 1, finish at 6 and 7.
	tr := new(builder).
		op(isa.OpFAdd, isa.S(1), isa.S(0), isa.S(0)).
		op(isa.OpFAdd, isa.S(2), isa.S(0), isa.S(0)).
		trace()
	if got := cycles(t, must(NewBasic(CRAYLike, M11BR5)), tr); got != 7 {
		t.Errorf("two independent FloatAdds = %d cycles, want 7", got)
	}
}

func TestCRAYLikeRAWChain(t *testing.T) {
	// Dependent adds serialize on the 6-cycle latency: 0->6->12.
	tr := new(builder).
		op(isa.OpFAdd, isa.S(1), isa.S(0), isa.S(0)).
		op(isa.OpFAdd, isa.S(2), isa.S(1), isa.S(1)).
		trace()
	if got := cycles(t, must(NewBasic(CRAYLike, M11BR5)), tr); got != 12 {
		t.Errorf("dependent FloatAdds = %d cycles, want 12", got)
	}
}

func TestCRAYLikeWAWBlocksIssue(t *testing.T) {
	// The transfer writes the register the add has reserved: it
	// cannot issue until the add's result arrives at cycle 6, and
	// completes at 7.
	tr := new(builder).
		op(isa.OpFAdd, isa.S(1), isa.S(0), isa.S(0)).
		op(isa.OpSImm, isa.S(1), isa.NoReg, isa.NoReg).
		trace()
	if got := cycles(t, must(NewBasic(CRAYLike, M11BR5)), tr); got != 7 {
		t.Errorf("WAW pair = %d cycles, want 7", got)
	}
}

func TestNonSegmentedUnitBusy(t *testing.T) {
	// Same two independent FloatAdds, but the adder is not pipelined:
	// the second enters at 6 and finishes at 12.
	tr := new(builder).
		op(isa.OpFAdd, isa.S(1), isa.S(0), isa.S(0)).
		op(isa.OpFAdd, isa.S(2), isa.S(0), isa.S(0)).
		trace()
	if got := cycles(t, must(NewBasic(NonSegmented, M11BR5)), tr); got != 12 {
		t.Errorf("NonSegmented FloatAdds = %d cycles, want 12", got)
	}
}

func TestMemoryInterleavingDifference(t *testing.T) {
	// Two independent loads. Serial memory: 11 + 11 = 22. Interleaved
	// (NonSegmented machine): second load starts at 1, finishes 12.
	tr := new(builder).load(isa.S(1), 100).load(isa.S(2), 200).trace()
	if got := cycles(t, must(NewBasic(SerialMemory, M11BR5)), tr); got != 22 {
		t.Errorf("SerialMemory loads = %d cycles, want 22", got)
	}
	if got := cycles(t, must(NewBasic(NonSegmented, M11BR5)), tr); got != 12 {
		t.Errorf("NonSegmented loads = %d cycles, want 12", got)
	}
}

func TestSimpleMachineExclusiveExecution(t *testing.T) {
	// The Simple machine never overlaps execution: a FloatAdd then an
	// independent transfer finish at 6 and 7 even though distinct
	// units are involved; the CRAY-like machine finishes the transfer
	// at cycle 2, inside the add's shadow.
	tr := new(builder).
		op(isa.OpFAdd, isa.S(1), isa.S(0), isa.S(0)).
		op(isa.OpSImm, isa.S(2), isa.NoReg, isa.NoReg).
		trace()
	if got := cycles(t, must(NewBasic(Simple, M11BR5)), tr); got != 7 {
		t.Errorf("Simple = %d cycles, want 7", got)
	}
	if got := cycles(t, must(NewBasic(CRAYLike, M11BR5)), tr); got != 6 {
		t.Errorf("CRAY-like = %d cycles, want 6", got)
	}
}

func TestBranchBlocksIssue(t *testing.T) {
	// An untaken branch with A0 ready holds the issue stage for the
	// branch time; the following add runs 5..11 (BR5) or 2..8 (BR2).
	tr := new(builder).
		branch(isa.OpJAN, false).
		op(isa.OpFAdd, isa.S(1), isa.S(0), isa.S(0)).
		trace()
	if got := cycles(t, must(NewBasic(CRAYLike, M11BR5)), tr); got != 11 {
		t.Errorf("BR5 = %d cycles, want 11", got)
	}
	if got := cycles(t, must(NewBasic(CRAYLike, M11BR2)), tr); got != 8 {
		t.Errorf("BR2 = %d cycles, want 8", got)
	}
}

func TestConditionalBranchWaitsForA0(t *testing.T) {
	// AddrAdd writes A0 at cycle 2; the branch issues then and blocks
	// until 7; the final add runs 7..13.
	tr := new(builder).
		op(isa.OpAAdd, isa.A0, isa.A(1), isa.A(2)).
		branch(isa.OpJAN, false).
		op(isa.OpFAdd, isa.S(1), isa.S(0), isa.S(0)).
		trace()
	if got := cycles(t, must(NewBasic(CRAYLike, M11BR5)), tr); got != 13 {
		t.Errorf("cycles = %d, want 13", got)
	}
}

func TestUnconditionalBranchIgnoresA0(t *testing.T) {
	// OpJ does not read A0, so a pending A0 write does not delay it.
	tr := new(builder).
		op(isa.OpAAdd, isa.A0, isa.A(1), isa.A(2)). // A0 busy until 2
		branch(isa.OpJ, true).
		trace()
	// J issues at 1 (in-order, one per cycle), resolves at 6.
	if got := cycles(t, must(NewBasic(CRAYLike, M11BR5)), tr); got != 6 {
		t.Errorf("cycles = %d, want 6", got)
	}
}

func TestMemoryLatencyConfig(t *testing.T) {
	tr := new(builder).load(isa.S(1), 10).trace()
	if got := cycles(t, must(NewBasic(CRAYLike, M11BR5)), tr); got != 11 {
		t.Errorf("M11 load = %d cycles, want 11", got)
	}
	if got := cycles(t, must(NewBasic(CRAYLike, M5BR5)), tr); got != 5 {
		t.Errorf("M5 load = %d cycles, want 5", got)
	}
}

// ---------------------------------------------------------------------
// Multiple issue, in-order (§5.1).

func TestMultiIssueSameCycle(t *testing.T) {
	// Distinct units, no dependencies, two stations: both issue at
	// cycle 0; cycles = FloatMul latency 7. One station: FMul at 0,
	// FAdd at 1 from the next buffer, finishing 7.
	tr := new(builder).
		op(isa.OpFMul, isa.S(1), isa.S(0), isa.S(0)).
		op(isa.OpFAdd, isa.S(2), isa.S(0), isa.S(0)).
		trace()
	two := cycles(t, must(NewMultiIssue(M11BR5.WithIssue(2, bus.BusN))), tr)
	if two != 7 {
		t.Errorf("2 stations = %d cycles, want 7", two)
	}
}

func TestMultiIssueDependentNotSameCycle(t *testing.T) {
	// The second op reads the first's result: same-cycle issue is
	// impossible; it waits for cycle 6 and completes at 13.
	tr := new(builder).
		op(isa.OpFAdd, isa.S(1), isa.S(0), isa.S(0)).
		op(isa.OpFMul, isa.S(2), isa.S(1), isa.S(1)).
		trace()
	if got := cycles(t, must(NewMultiIssue(M11BR5.WithIssue(2, bus.BusN))), tr); got != 13 {
		t.Errorf("dependent pair = %d cycles, want 13", got)
	}
}

func TestMultiIssueInOrderBlocking(t *testing.T) {
	// [blocked-by-RAW, independent]: the independent op must NOT
	// bypass the blocked one under sequential issue.
	tr := new(builder).
		op(isa.OpRecip, isa.S(1), isa.S(0), isa.NoReg). // done at 14
		op(isa.OpFMul, isa.S(2), isa.S(1), isa.S(1)).   // RAW: issues at 14
		op(isa.OpSImm, isa.S(3), isa.NoReg, isa.NoReg). // independent but behind
		trace()
	got := cycles(t, must(NewMultiIssue(M11BR5.WithIssue(3, bus.BusN))), tr)
	// Recip at 0 (done 14), FMul at 14 (done 21), SImm at 14 (same
	// cycle, station 2, done 15): total 21.
	if got != 21 {
		t.Errorf("in-order blocking = %d cycles, want 21", got)
	}
}

func TestMultiIssueBufferRefill(t *testing.T) {
	// Four independent ops in two unit classes, two stations: group
	// {FAdd, FMul} issues together at cycle 0; the buffer refills and
	// group {FAdd, FMul} issues at cycle 1; the last FMul completes at
	// 1 + 7 = 8.
	b := new(builder).
		op(isa.OpFAdd, isa.S(1), isa.S(0), isa.S(0)).
		op(isa.OpFMul, isa.S(2), isa.S(0), isa.S(0)).
		op(isa.OpFAdd, isa.S(3), isa.S(0), isa.S(0)).
		op(isa.OpFMul, isa.S(4), isa.S(0), isa.S(0))
	got := cycles(t, must(NewMultiIssue(M11BR5.WithIssue(2, bus.BusN))), b.trace())
	if got != 8 {
		t.Errorf("refill pattern = %d cycles, want 8", got)
	}
}

func TestMultiIssueOneUnitPerClass(t *testing.T) {
	// The machine has exactly one transfer unit; even with plenty of
	// issue stations, back-to-back transfers enter it one per cycle.
	b := new(builder)
	for i := 1; i <= 4; i++ {
		b.op(isa.OpSImm, isa.S(i), isa.NoReg, isa.NoReg)
	}
	got := cycles(t, must(NewMultiIssue(M11BR5.WithIssue(4, bus.BusN))), b.trace())
	if got != 4 { // issue 0,1,2,3; done 1,2,3,4
		t.Errorf("transfer stream = %d cycles, want 4", got)
	}
}

func TestMultiIssueTakenBranchEndsBuffer(t *testing.T) {
	// [FAdd, JAN taken, FAdd]: the taken branch truncates the buffer,
	// the next fetch waits for resolution at 0+5; last add runs 5..11.
	tr := new(builder).
		op(isa.OpFAdd, isa.S(1), isa.S(0), isa.S(0)).
		branch(isa.OpJAN, true).
		op(isa.OpFAdd, isa.S(2), isa.S(0), isa.S(0)).
		trace()
	if got := cycles(t, must(NewMultiIssue(M11BR5.WithIssue(8, bus.BusN))), tr); got != 11 {
		t.Errorf("taken branch = %d cycles, want 11", got)
	}
}

func TestMultiIssueUntakenBranchMidBuffer(t *testing.T) {
	// An untaken branch inside the buffer delays its successors until
	// resolution, but the buffer is not refetched.
	tr := new(builder).
		branch(isa.OpJAN, false).
		op(isa.OpSImm, isa.S(1), isa.NoReg, isa.NoReg).
		trace()
	// Branch at 0, resolution 5, transfer at 5, done 6.
	if got := cycles(t, must(NewMultiIssue(M11BR5.WithIssue(2, bus.BusN))), tr); got != 6 {
		t.Errorf("untaken branch = %d cycles, want 6", got)
	}
}

func TestMultiIssueResultBusConflict(t *testing.T) {
	// FMul at 0 completes at 7; FMul at 1 completes at 8; the FAdd
	// would issue at 1 and complete at 7 — colliding with the first
	// result on a single bus, and at 8 with the second, so it slides
	// to issue at 3 (done 9). With per-station busses there is no
	// conflict: FAdd issues at 1, cycles = 8.
	tr := new(builder).
		op(isa.OpFMul, isa.S(1), isa.S(0), isa.S(0)).
		op(isa.OpFMul, isa.S(2), isa.S(0), isa.S(0)).
		op(isa.OpFAdd, isa.S(3), isa.S(0), isa.S(0)).
		trace()
	oneBus := cycles(t, must(NewMultiIssue(M11BR5.WithIssue(3, bus.Bus1))), tr)
	nBus := cycles(t, must(NewMultiIssue(M11BR5.WithIssue(3, bus.BusN))), tr)
	if nBus != 8 {
		t.Errorf("N-Bus = %d cycles, want 8", nBus)
	}
	if oneBus != 9 {
		t.Errorf("1-Bus = %d cycles, want 9", oneBus)
	}
}

func TestStoresAndBranchesSkipResultBus(t *testing.T) {
	// A store and a branch produce no register result; on a 1-Bus
	// machine they must not occupy result slots. Two stores complete
	// at the same time as a load's result without conflict.
	tr := new(builder).
		push(trace.Op{Code: isa.OpStoreS, Dst: isa.NoReg, Src1: isa.A(1), Src2: isa.S(0), Addr: 1}).
		push(trace.Op{Code: isa.OpStoreS, Dst: isa.NoReg, Src1: isa.A(1), Src2: isa.S(0), Addr: 2}).
		trace()
	// Both stores pipeline through interleaved memory: 0..11, 1..12.
	if got := cycles(t, must(NewMultiIssue(M11BR5.WithIssue(2, bus.Bus1))), tr); got != 12 {
		t.Errorf("stores on 1-Bus = %d cycles, want 12", got)
	}
}

// ---------------------------------------------------------------------
// Multiple issue, out-of-order (§5.2).

func TestOOOBypassesBlockedInstruction(t *testing.T) {
	// [Recip (14), FMul dep on it, Load independent], one buffer of 3.
	// In-order: the load trails the FMul (issues at 14, done 25).
	// Out-of-order: the load issues at 0 and is long done; the FMul's
	// completion at 21 dominates.
	tr := new(builder).
		op(isa.OpRecip, isa.S(1), isa.S(0), isa.NoReg).
		op(isa.OpFMul, isa.S(2), isa.S(1), isa.S(1)).
		load(isa.S(3), 100).
		trace()
	inOrder := cycles(t, must(NewMultiIssue(M11BR5.WithIssue(3, bus.BusN))), tr)
	ooo := cycles(t, must(NewMultiIssueOOO(M11BR5.WithIssue(3, bus.BusN))), tr)
	if inOrder != 25 {
		t.Errorf("in-order = %d cycles, want 25", inOrder)
	}
	if ooo != 21 {
		t.Errorf("out-of-order = %d cycles, want 21", ooo)
	}
}

func TestOOORespectsWAWInBuffer(t *testing.T) {
	// [Recip S0 (from earlier group), FMul S2 <- S0, SImm S2]: the
	// transfer writes S2, which the earlier *unissued* FMul also
	// writes; it may not issue ahead of it.
	tr := new(builder).
		op(isa.OpRecip, isa.S(0), isa.S(4), isa.NoReg).
		op(isa.OpFMul, isa.S(2), isa.S(0), isa.S(0)).
		op(isa.OpSImm, isa.S(2), isa.NoReg, isa.NoReg).
		trace()
	// Group 1 = [Recip] (w=2 puts FMul in it too: use w=2 so groups
	// are [Recip, FMul], [SImm]? No: we want FMul and SImm in one
	// buffer. Use w=3: all in one buffer. Recip issues at 0 (done
	// 14); FMul RAW-waits until 14 (done 21); SImm WAW vs unissued
	// FMul until 14; at 14 FMul issues, SImm sees the scoreboard
	// reservation (21) and issues at 21, done 22.
	got := cycles(t, must(NewMultiIssueOOO(M11BR5.WithIssue(3, bus.BusN))), tr)
	if got != 22 {
		t.Errorf("WAW in buffer = %d cycles, want 22", got)
	}
}

func TestOOORespectsRAWInBuffer(t *testing.T) {
	// The consumer of an unissued producer must wait even if its own
	// resources are free.
	tr := new(builder).
		op(isa.OpRecip, isa.S(1), isa.S(0), isa.NoReg). // done 14
		op(isa.OpFAdd, isa.S(2), isa.S(1), isa.S(1)).   // needs S1
		trace()
	got := cycles(t, must(NewMultiIssueOOO(M11BR5.WithIssue(2, bus.BusN))), tr)
	if got != 20 { // 14 + 6
		t.Errorf("RAW in buffer = %d cycles, want 20", got)
	}
}

func TestOOONoIssuePastBranch(t *testing.T) {
	// No speculation: the op after an unresolved branch waits for
	// resolution even though it is independent.
	tr := new(builder).
		branch(isa.OpJAN, false).
		op(isa.OpSImm, isa.S(1), isa.NoReg, isa.NoReg).
		trace()
	got := cycles(t, must(NewMultiIssueOOO(M11BR5.WithIssue(2, bus.BusN))), tr)
	if got != 6 { // branch 0..5, transfer 5..6
		t.Errorf("op crossed a branch = %d cycles, want 6", got)
	}
}

func TestOOOBranchWaitsToBeOldest(t *testing.T) {
	// The branch may not issue (and resolve) before older unissued
	// instructions, or a taken branch would squash work that must
	// architecturally complete.
	tr := new(builder).
		op(isa.OpRecip, isa.S(1), isa.S(0), isa.NoReg). // issues 0, done 14
		op(isa.OpFAdd, isa.S(2), isa.S(1), isa.S(1)).   // issues 14
		branch(isa.OpJAN, true).                        // may not pass the FAdd
		trace()
	got := cycles(t, must(NewMultiIssueOOO(M11BR5.WithIssue(3, bus.BusN))), tr)
	// FAdd issues at 14; branch at 15, resolves 20; FAdd done 20.
	if got != 20 {
		t.Errorf("branch reorder = %d cycles, want 20", got)
	}
}

// ---------------------------------------------------------------------
// RUU machine (§5.3).

func TestRUURenamesWAW(t *testing.T) {
	// [Recip S1, SImm S1, FAdd S3 <- S1]: renaming lets the transfer
	// complete under the reciprocal's shadow and feeds the add the
	// *newer* instance; total time is the reciprocal's 15 cycles
	// (issue 0, dispatch 1, done 15), not a WAW-serialized chain.
	tr := new(builder).
		op(isa.OpRecip, isa.S(1), isa.S(0), isa.NoReg).
		op(isa.OpSImm, isa.S(1), isa.NoReg, isa.NoReg).
		op(isa.OpFAdd, isa.S(3), isa.S(1), isa.S(1)).
		trace()
	got := cycles(t, must(NewRUU(M11BR5.WithIssue(4, bus.BusN).WithRUU(8))), tr)
	if got != 15 {
		t.Errorf("RUU WAW = %d cycles, want 15", got)
	}
	// The CRAY-like machine, by contrast, WAW-blocks the transfer
	// until 14 and the add until 15, finishing at 21.
	if got := cycles(t, must(NewBasic(CRAYLike, M11BR5)), tr); got != 21 {
		t.Errorf("CRAY-like WAW = %d cycles, want 21", got)
	}
}

func TestRUUBypassFeedsDependent(t *testing.T) {
	// Producer (transfer, done at 2) wakes the consumer, which
	// dispatches the same cycle the result returns and completes at 8.
	tr := new(builder).
		op(isa.OpSImm, isa.S(1), isa.NoReg, isa.NoReg).
		op(isa.OpFAdd, isa.S(2), isa.S(1), isa.S(1)).
		trace()
	got := cycles(t, must(NewRUU(M11BR5.WithIssue(2, bus.BusN).WithRUU(8))), tr)
	if got != 8 {
		t.Errorf("bypass chain = %d cycles, want 8", got)
	}
}

func TestRUUBranchReadsA0ThroughBypass(t *testing.T) {
	// AddrAdd -> A0 broadcasts at 3; the branch issues at 3 and
	// resolves at 8; the following transfer issues at 8, dispatches 9,
	// completes 10.
	tr := new(builder).
		op(isa.OpAAdd, isa.A0, isa.A(1), isa.A(2)).
		branch(isa.OpJAN, false).
		op(isa.OpSImm, isa.S(1), isa.NoReg, isa.NoReg).
		trace()
	got := cycles(t, must(NewRUU(M11BR5.WithIssue(2, bus.BusN).WithRUU(8))), tr)
	if got != 10 {
		t.Errorf("branch through RUU = %d cycles, want 10", got)
	}
}

func TestRUUFullStallsIssue(t *testing.T) {
	// With one slot, every instruction waits for its predecessor to
	// commit; with eight slots, the same independent transfers
	// pipeline. The trace is long enough that the difference is
	// unambiguous.
	b := new(builder)
	for i := 0; i < 8; i++ {
		b.op(isa.OpFAdd, isa.S(i%7), isa.S(7), isa.S(7))
	}
	tr := b.trace()
	tiny := cycles(t, must(NewRUU(M11BR5.WithIssue(1, bus.Bus1).WithRUU(1))), tr)
	roomy := cycles(t, must(NewRUU(M11BR5.WithIssue(1, bus.Bus1).WithRUU(8))), tr)
	if tiny <= roomy {
		t.Errorf("RUU size had no effect: size 1 = %d, size 8 = %d", tiny, roomy)
	}
}

func TestRUU1BusDispatchThroughput(t *testing.T) {
	// 20 independent ops spread over four unit classes: a 1-Bus RUU
	// dispatches one per cycle (>= 20 cycles); a 4-bank N-Bus RUU
	// dispatches up to four per cycle, one into each unit.
	b := new(builder)
	for i := 0; i < 5; i++ {
		b.op(isa.OpFAdd, isa.S(1+i%3), isa.S(0), isa.S(0))
		b.op(isa.OpFMul, isa.S(4+i%3), isa.S(0), isa.S(0))
		b.op(isa.OpAAdd, isa.A(1+i%3), isa.A(0), isa.A(0))
		b.op(isa.OpSAdd, isa.S(7), isa.S(0), isa.S(0))
	}
	tr := b.trace()
	one := cycles(t, must(NewRUU(M11BR5.WithIssue(4, bus.Bus1).WithRUU(40))), tr)
	four := cycles(t, must(NewRUU(M11BR5.WithIssue(4, bus.BusN).WithRUU(40))), tr)
	if one < 20 {
		t.Errorf("1-Bus dispatched faster than one per cycle: %d cycles for 20 ops", one)
	}
	if four*2 >= one {
		t.Errorf("N-Bus (%d cycles) not substantially faster than 1-Bus (%d cycles)", four, one)
	}
}

func TestRUUInstructionCountIncludesBranches(t *testing.T) {
	tr := new(builder).
		op(isa.OpSImm, isa.S(1), isa.NoReg, isa.NoReg).
		branch(isa.OpJ, true).
		op(isa.OpSImm, isa.S(2), isa.NoReg, isa.NoReg).
		trace()
	r := must(must(NewRUU(M11BR5.WithIssue(2, bus.BusN).WithRUU(8))).RunChecked(tr, Limits{}))
	if r.Instructions != 3 {
		t.Errorf("instructions = %d, want 3", r.Instructions)
	}
}

// ---------------------------------------------------------------------
// Cross-machine and reuse properties.

func TestMachinesAreReusable(t *testing.T) {
	// Running the same machine twice must give identical results:
	// RunChecked fully resets state, also after a run that failed with
	// instructions in flight.
	tr := new(builder).
		op(isa.OpFAdd, isa.S(1), isa.S(0), isa.S(0)).
		op(isa.OpFMul, isa.S(2), isa.S(1), isa.S(1)).
		branch(isa.OpJAN, false).
		load(isa.S(3), 100).
		trace()
	builds := []func() Machine{
		func() Machine { return must(NewBasic(Simple, M11BR5)) },
		func() Machine { return must(NewBasic(SerialMemory, M11BR5)) },
		func() Machine { return must(NewBasic(NonSegmented, M11BR5)) },
		func() Machine { return must(NewBasic(CRAYLike, M11BR5)) },
		func() Machine { return must(NewScoreboard(M11BR5)) },
		func() Machine { return must(NewTomasulo(M11BR5)) },
		func() Machine { return must(NewMultiIssue(M11BR5.WithIssue(4, bus.Bus1))) },
		func() Machine { return must(NewMultiIssueOOO(M11BR5.WithIssue(4, bus.BusN))) },
		func() Machine { return must(NewRUU(M11BR5.WithIssue(2, bus.BusN).WithRUU(10))) },
	}
	for _, build := range builds {
		m := build()
		a := must(m.RunChecked(tr, Limits{})).Cycles
		b := must(m.RunChecked(tr, Limits{})).Cycles
		if a != b {
			t.Errorf("%s: second run %d cycles, first %d", m.Name(), b, a)
		}
		for _, k := range loops.ByClass(loops.Scalar) {
			kt := k.SharedTrace()
			want := must(build().RunChecked(kt, Limits{}))
			if _, err := m.RunChecked(kt, Limits{MaxCycles: 60}); err == nil {
				t.Fatalf("%s on %s: no error under a 60-cycle budget", m.Name(), kt.Name)
			}
			if got := must(m.RunChecked(kt, Limits{})); got != want {
				t.Errorf("%s on %s after an aborted run: %v, a fresh machine gives %v", m.Name(), kt.Name, got, want)
			}
		}
	}
}

func TestEmptyTraceRuns(t *testing.T) {
	tr := &trace.Trace{Name: "empty"}
	for _, m := range []Machine{
		must(NewBasic(CRAYLike, M11BR5)),
		must(NewMultiIssue(M11BR5.WithIssue(2, bus.BusN))),
		must(NewMultiIssueOOO(M11BR5.WithIssue(2, bus.BusN))),
		must(NewRUU(M11BR5.WithIssue(2, bus.BusN).WithRUU(8))),
	} {
		r := must(m.RunChecked(tr, Limits{}))
		if r.Instructions != 0 || r.Cycles != 0 {
			t.Errorf("%s on empty trace: %+v", m.Name(), r)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"basic zero memory":    func() { must(NewBasic(CRAYLike, Config{MemLatency: 0, BranchLatency: 5})) },
		"multi zero units":     func() { must(NewMultiIssue(Config{MemLatency: 11, BranchLatency: 5})) },
		"ooo zero units":       func() { must(NewMultiIssueOOO(Config{MemLatency: 11, BranchLatency: 5})) },
		"ruu undersized":       func() { must(NewRUU(Config{MemLatency: 11, BranchLatency: 5, IssueUnits: 4, RUUSize: 2})) },
		"ruu zero units":       func() { must(NewRUU(Config{MemLatency: 11, BranchLatency: 5, RUUSize: 8})) },
		"negative branch time": func() { must(NewBasic(Simple, Config{MemLatency: 11, BranchLatency: -1})) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestConfigNames(t *testing.T) {
	if M11BR5.Name() != "M11BR5" || M5BR2.Name() != "M5BR2" {
		t.Error("config names do not match the paper")
	}
	if len(BaseConfigs()) != 4 {
		t.Error("BaseConfigs should return the paper's 4 variations")
	}
}

func TestResultIssueRate(t *testing.T) {
	r := Result{Instructions: 10, Cycles: 40}
	if r.IssueRate() != 0.25 {
		t.Errorf("IssueRate = %v, want 0.25", r.IssueRate())
	}
	if (Result{}).IssueRate() != 0 {
		t.Error("zero result should have zero rate")
	}
}

func TestMemoryBankConflicts(t *testing.T) {
	// Two loads to addresses in the same bank (mod 4): with the ideal
	// interleaved memory they pipeline (cycles 12); with 4 banks the
	// second waits for the bank (issue 11, done 22). A load to a
	// different bank is unaffected.
	same := new(builder).load(isa.S(1), 100).load(isa.S(2), 104).trace()
	ideal := cycles(t, must(NewBasic(CRAYLike, M11BR5)), same)
	banked := cycles(t, must(NewBasic(CRAYLike, M11BR5.WithMemBanks(4))), same)
	if ideal != 12 {
		t.Errorf("ideal = %d cycles, want 12", ideal)
	}
	if banked != 22 {
		t.Errorf("banked same-bank = %d cycles, want 22", banked)
	}
	other := new(builder).load(isa.S(1), 100).load(isa.S(2), 101).trace()
	if got := cycles(t, must(NewBasic(CRAYLike, M11BR5.WithMemBanks(4))), other); got != 12 {
		t.Errorf("banked different-bank = %d cycles, want 12", got)
	}
}

func TestMemoryBanksAcrossMachines(t *testing.T) {
	// On the single-issue machines (fixed issue order, no result-bus
	// scheduling) the bank model can only add cycles. The greedy
	// multiple-issue schedulers admit tiny Graham-type anomalies —
	// an added constraint occasionally improves the schedule — so for
	// them only near-monotonicity (no >2% speedup) is asserted.
	for _, k := range loops.All() {
		tr := k.SharedTrace()
		pairs := []struct {
			ideal, banked Machine
			strict        bool
		}{
			{must(NewBasic(CRAYLike, M11BR5)), must(NewBasic(CRAYLike, M11BR5.WithMemBanks(4))), true},
			{must(NewBasic(NonSegmented, M11BR5)), must(NewBasic(NonSegmented, M11BR5.WithMemBanks(4))), true},
			{must(NewMultiIssue(M11BR5.WithIssue(4, bus.BusN))), must(NewMultiIssue(M11BR5.WithIssue(4, bus.BusN).WithMemBanks(4))), false},
			{must(NewMultiIssueOOO(M11BR5.WithIssue(4, bus.BusN))), must(NewMultiIssueOOO(M11BR5.WithIssue(4, bus.BusN).WithMemBanks(4))), false},
			{must(NewRUU(M11BR5.WithIssue(2, bus.BusN).WithRUU(30))), must(NewRUU(M11BR5.WithIssue(2, bus.BusN).WithRUU(30).WithMemBanks(4))), false},
		}
		for _, p := range pairs {
			a := must(p.ideal.RunChecked(tr, Limits{})).Cycles
			c := must(p.banked.RunChecked(tr, Limits{})).Cycles
			if p.strict && c < a {
				t.Errorf("%s on %s: banked memory reduced cycles (%d -> %d)", k, p.ideal.Name(), a, c)
			}
			if !p.strict && float64(c) < 0.98*float64(a) {
				t.Errorf("%s on %s: banked memory reduced cycles beyond anomaly range (%d -> %d)",
					k, p.ideal.Name(), a, c)
			}
		}
	}
}
