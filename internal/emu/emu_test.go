package emu

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"mfup/internal/asm"
	"mfup/internal/isa"
)

func runSrc(t *testing.T, src string) (*Machine, int) {
	t.Helper()
	p, err := asm.Assemble("t", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := New(1 << 16)
	tr, err := m.Run(p)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return m, tr.Len()
}

func TestAddressArithmetic(t *testing.T) {
	m, _ := runSrc(t, `
    A1 = 10
    A2 = 3
    A3 = A1 + A2
    A4 = A1 - A2
    A5 = A1 * A2
    A6 = A1 + 100
    A7 = A1 - 4
`)
	for i, want := range map[int]int64{3: 13, 4: 7, 5: 30, 6: 110, 7: 6} {
		if m.A[i] != want {
			t.Errorf("A%d = %d, want %d", i, m.A[i], want)
		}
	}
}

func TestScalarIntegerAndLogical(t *testing.T) {
	m, _ := runSrc(t, `
    S1 = 12
    S2 = 10
    S3 = S1 + S2
    S4 = S1 - S2
    S5 = S1 & S2
    S6 = S1 | S2
    S7 = S1 ^ S2
`)
	for i, want := range map[int]uint64{3: 22, 4: 2, 5: 8, 6: 14, 7: 6} {
		if m.S[i] != want {
			t.Errorf("S%d = %d, want %d", i, m.S[i], want)
		}
	}
}

func TestShifts(t *testing.T) {
	m, _ := runSrc(t, `
    S1 = 5
    S2 = S1 << 3
    S3 = S1 >> 1
`)
	if m.S[2] != 40 || m.S[3] != 2 {
		t.Errorf("shifts: S2=%d S3=%d, want 40, 2", m.S[2], m.S[3])
	}
}

func TestPopAndLZ(t *testing.T) {
	m, _ := runSrc(t, `
    S1 = 7
    S2 = POP S1
    S3 = LZ S1
`)
	if m.S[2] != 3 {
		t.Errorf("POP 7 = %d, want 3", m.S[2])
	}
	if m.S[3] != 61 {
		t.Errorf("LZ 7 = %d, want 61", m.S[3])
	}
}

func TestFloatingPoint(t *testing.T) {
	m, _ := runSrc(t, `
    S1 = 1.5
    S2 = 2.5
    S3 = S1 +F S2
    S4 = S1 -F S2
    S5 = S1 *F S2
    S6 = 1 / S2
`)
	for i, want := range map[int]float64{3: 4.0, 4: -1.0, 5: 3.75, 6: 0.4} {
		if got := m.SFloat(i); got != want {
			t.Errorf("S%d = %v, want %v", i, got, want)
		}
	}
}

func TestTransfersAndConversions(t *testing.T) {
	m, _ := runSrc(t, `
    A1 = 42
    S1 = A1          ; integer into S
    A2 = S1          ; back to A
    B3 = A1
    A4 = B3
    S2 = 3.75
    T5 = S2
    S3 = T5
    A5 = FIX S2      ; truncates toward zero
    S4 = FLOAT A1
`)
	if m.A[2] != 42 || m.A[4] != 42 {
		t.Errorf("A transfers: A2=%d A4=%d, want 42", m.A[2], m.A[4])
	}
	if m.SFloat(3) != 3.75 {
		t.Errorf("T round trip: S3=%v, want 3.75", m.SFloat(3))
	}
	if m.A[5] != 3 {
		t.Errorf("FIX 3.75 = %d, want 3", m.A[5])
	}
	if m.SFloat(4) != 42.0 {
		t.Errorf("FLOAT 42 = %v, want 42.0", m.SFloat(4))
	}
}

func TestMemory(t *testing.T) {
	m, n := runSrc(t, `
    A1 = 100
    S1 = 6.25
    [A1 + 2] = S1
    S2 = [A1 + 2]
    A2 = 77
    [A1] = A2
    A3 = [A1]
`)
	if m.Float(102) != 6.25 || m.SFloat(2) != 6.25 {
		t.Error("scalar store/load failed")
	}
	if m.Int(100) != 77 || m.A[3] != 77 {
		t.Error("address store/load failed")
	}
	if n != 7 {
		t.Errorf("trace length %d, want 7", n)
	}
}

func TestBranchSemantics(t *testing.T) {
	// Count down from 3: the loop body runs exactly 3 times.
	m, _ := runSrc(t, `
    A0 = 3
    A7 = 1
    A2 = 0
loop:
    A2 = A2 + A7
    A0 = A0 - A7
    JAN loop
`)
	if m.A[2] != 3 {
		t.Errorf("loop ran %d times, want 3", m.A[2])
	}
}

func TestConditionalBranchPredicates(t *testing.T) {
	// Each predicate is exercised against a positive, zero, and
	// negative A0. The program records which branches were taken by
	// incrementing distinct A registers at the target.
	m, _ := runSrc(t, `
    A7 = 1
    A0 = 0
    JAZ z_taken
    PASS
z_taken:
    A0 = 5
    JAP p_taken
    PASS
p_taken:
    A0 = A0 - 10     ; A0 = -5
    JAM m_taken
    PASS
m_taken:
    JAN n_taken
    PASS
n_taken:
    A0 = 0
    JAN not_taken    ; must fall through
    A2 = A2 + A7     ; executed only on fall-through
not_taken:
    JAP end          ; A0 == 0 counts as positive
    A3 = A3 + A7     ; must be skipped
end:
`)
	if m.A[2] != 1 {
		t.Error("JAN with A0=0 did not fall through")
	}
	if m.A[3] != 0 {
		t.Error("JAP with A0=0 did not take the branch")
	}
}

func TestTraceRecordsBranchOutcomes(t *testing.T) {
	p, err := asm.Assemble("t", `
    A0 = 1
    A7 = 1
loop:
    A0 = A0 - A7
    JAN loop
`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(0)
	tr, err := m.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	last := tr.Ops[len(tr.Ops)-1]
	if !last.IsBranch() || last.Taken {
		t.Errorf("final branch: IsBranch=%v Taken=%v, want true,false", last.IsBranch(), last.Taken)
	}
}

func TestTraceRecordsAddresses(t *testing.T) {
	p, err := asm.Assemble("t", `
    A1 = 200
    S1 = [A1 + 5]
    [A1 - 1] = S1
`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(1 << 10)
	tr, err := m.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Ops[1].Addr != 205 {
		t.Errorf("load address = %d, want 205", tr.Ops[1].Addr)
	}
	if tr.Ops[2].Addr != 199 {
		t.Errorf("store address = %d, want 199", tr.Ops[2].Addr)
	}
}

func TestTraceSequenceAndPC(t *testing.T) {
	p, err := asm.Assemble("t", `
    A0 = 2
    A7 = 1
loop:
    A0 = A0 - A7
    JAN loop
`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(0)
	tr, err := m.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	// Dynamic: A0=2, A7=1, (dec, JAN) x2 -> 6 ops.
	if tr.Len() != 6 {
		t.Fatalf("trace length %d, want 6", tr.Len())
	}
	for i, op := range tr.Ops {
		if op.Seq != int64(i) {
			t.Errorf("op %d: seq %d", i, op.Seq)
		}
	}
	if tr.Ops[4].PC != 2 {
		t.Errorf("second loop iteration pc = %d, want 2", tr.Ops[4].PC)
	}
}

// TestTraceAcrossChunkBoundaries: a trace emitted across Run's growing
// chunks keeps every op in order with its Seq, and comes back in one
// slice with no spare capacity, at lengths below, at and past a chunk
// boundary and over many full-size chunks.
func TestTraceAcrossChunkBoundaries(t *testing.T) {
	for _, want := range []int{0, 4, firstChunk - 2, firstChunk, firstChunk + 2, 3 * firstChunk, 10*maxChunk + 4} {
		src := ""
		if want > 0 {
			// 2 set-up ops, then a 2-op loop body (want-2)/2 times.
			src = fmt.Sprintf("    A0 = %d\n    A7 = 1\nloop:\n    A0 = A0 - A7\n    JAN loop\n", (want-2)/2)
		}
		p, err := asm.Assemble("t", src)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := New(16).Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Ops) != want || cap(tr.Ops) != want {
			t.Fatalf("%d ops: got len %d cap %d", want, len(tr.Ops), cap(tr.Ops))
		}
		for i, op := range tr.Ops {
			pc := i
			if i >= 2 {
				pc = 2 + (i-2)%2
			}
			if op.Seq != int64(i) || op.PC != pc || op.Taken != (pc == 3 && i != want-1) {
				t.Fatalf("%d ops: op %d is seq %d pc %d taken %v", want, i, op.Seq, op.PC, op.Taken)
			}
		}
	}
}

func TestStepLimit(t *testing.T) {
	p, err := asm.Assemble("t", "loop:\n    J loop\n")
	if err != nil {
		t.Fatal(err)
	}
	m := New(0)
	m.StepLimit = 1000
	_, err = m.Run(p)
	if !errors.Is(err, ErrStepLimit) {
		t.Errorf("infinite loop error = %v, want ErrStepLimit", err)
	}
	var re *RuntimeError
	if !errors.As(err, &re) {
		t.Fatalf("error type %T, want *RuntimeError", err)
	}
	if re.Seq != 1000 {
		t.Errorf("failed at seq %d, want 1000", re.Seq)
	}
}

func TestOutOfRangeMemory(t *testing.T) {
	p, err := asm.Assemble("t", `
    A1 = 100
    S1 = [A1 + 0]
`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(50) // memory smaller than address 100
	_, err = m.Run(p)
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("out-of-range access error = %v", err)
	}
	// Negative addresses must also fail.
	p2, _ := asm.Assemble("t", `
    A1 = -5
    [A1] = A1
`)
	if _, err := New(50).Run(p2); err == nil {
		t.Error("negative address accepted")
	}
}

func TestResetClearsRegistersNotMemory(t *testing.T) {
	m := New(64)
	m.A[3] = 9
	m.S[2] = 7
	m.B[10] = 1
	m.T[10] = 1
	m.SetFloat(5, 2.5)
	m.Reset()
	if m.A[3] != 0 || m.S[2] != 0 || m.B[10] != 0 || m.T[10] != 0 {
		t.Error("Reset left register state")
	}
	if m.Float(5) != 2.5 {
		t.Error("Reset clobbered memory")
	}
}

func TestFloatHelpers(t *testing.T) {
	m := New(16)
	m.SetSFloat(1, -0.5)
	if m.SFloat(1) != -0.5 {
		t.Error("SFloat round trip failed")
	}
	m.SetInt(3, -12)
	if m.Int(3) != -12 {
		t.Error("Int round trip failed")
	}
}

func TestRecipExactness(t *testing.T) {
	m, _ := runSrc(t, `
    S1 = 8.0
    S2 = 1 / S1
`)
	if got := m.SFloat(2); got != 0.125 {
		t.Errorf("1/8 = %v, want 0.125", got)
	}
}

func TestSImmIntegerBitsAreNotFloats(t *testing.T) {
	m, _ := runSrc(t, "S1 = 63")
	if m.S[1] != 63 {
		t.Errorf("S1 = %d, want raw integer 63", m.S[1])
	}
	if m.SFloat(1) == 63.0 {
		t.Error("integer immediate produced float encoding")
	}
}

func TestMachineStateAfterKernelStyleRun(t *testing.T) {
	// A miniature recurrence kernel; verifies end-to-end emulation of
	// the idioms the Livermore kernels rely on (pointer bumping,
	// FIX/mask indexing through scalar unit).
	m, _ := runSrc(t, `
    A1 = 100
    S1 = 2.5
    [A1] = S1
    S2 = [A1]
    A2 = FIX S2
    S3 = A2
    S4 = 3
    S3 = S3 & S4
    A3 = S3
`)
	if m.A[2] != 2 {
		t.Errorf("FIX 2.5 = %d, want 2", m.A[2])
	}
	if m.A[3] != 2 {
		t.Errorf("mask path = %d, want 2", m.A[3])
	}
}

func TestRunPreservesIEEEBitPatterns(t *testing.T) {
	p, err := asm.Assemble("t", `
    A1 = 10
    S1 = [A1]
    [A1 + 1] = S1
`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(64)
	bits := math.Float64bits(math.Pi)
	m.Mem[10] = bits
	if _, err := m.Run(p); err != nil {
		t.Fatal(err)
	}
	if m.Mem[11] != bits {
		t.Error("load/store altered bit pattern")
	}
}

func TestVectorExecution(t *testing.T) {
	p, err := asm.Assemble("v", `
    A1 = 100        ; source a
    A2 = 200        ; source b
    A3 = 300        ; destination
    A4 = 4
    VL = A4
    V1 = [A1 : 1]
    V2 = [A2 : 2]   ; strided
    V3 = V1 +F V2
    V4 = V1 *F V2
    V5 = V1 -F V2
    S1 = 10.0
    V6 = S1 +F V3
    V7 = S1 *F V3
    [A3 : 1] = V6
    A5 = 2
    S2 = V7 [ A5 ]  ; element read
`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(1 << 10)
	a := []float64{1, 2, 3, 4}
	bvals := []float64{10, 20, 30, 40}
	for i := 0; i < 4; i++ {
		m.SetFloat(100+int64(i), a[i])
		m.SetFloat(200+int64(2*i), bvals[i]) // stride 2
	}
	tr, err := m.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		want := 10.0 + (a[i] + bvals[i])
		if got := m.Float(300 + int64(i)); got != want {
			t.Errorf("result[%d] = %v, want %v", i, got, want)
		}
	}
	if got := m.SFloat(2); got != 10.0*(a[2]+bvals[2]) {
		t.Errorf("element read = %v, want %v", got, 10.0*(a[2]+bvals[2]))
	}
	// Trace metadata: the strided load records base, stride, length.
	var vld *int
	for i := range tr.Ops {
		if tr.Ops[i].Code == isa.OpVLoad && tr.Ops[i].Stride == 2 {
			vld = &i
			break
		}
	}
	if vld == nil {
		t.Fatal("no strided vector load in trace")
	}
	op := tr.Ops[*vld]
	if op.Addr != 200 || op.VLen != 4 {
		t.Errorf("vector load metadata: addr=%d vlen=%d, want 200, 4", op.Addr, op.VLen)
	}
}

func TestVectorBoundsChecks(t *testing.T) {
	// VL out of range.
	p1, _ := asm.Assemble("v", `
    A1 = 100
    VL = A1
`)
	if _, err := New(0).Run(p1); err == nil {
		t.Error("VL = 100 accepted")
	}
	// Vector access off the end of memory.
	p2, _ := asm.Assemble("v", `
    A1 = 60
    A2 = 4
    VL = A2
    V1 = [A1 : 1]
`)
	if _, err := New(62).Run(p2); err == nil {
		t.Error("out-of-range vector load accepted")
	}
	// Element index out of range.
	p3, _ := asm.Assemble("v", `
    A1 = 64
    S1 = V1 [ A1 ]
`)
	if _, err := New(0).Run(p3); err == nil {
		t.Error("element index 64 accepted")
	}
}
