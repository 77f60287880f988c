package loops

import (
	"testing"

	"mfup/internal/isa"
)

// TestAllKernelsValidate is the suite's backbone: every kernel
// executes to completion and its memory/register results match the
// pure-Go reference bit for bit, validating the hand compilation and
// the emulator together.
func TestAllKernelsValidate(t *testing.T) {
	if len(All()) != 14 {
		t.Fatalf("registry has %d kernels, want 14", len(All()))
	}
	for _, k := range All() {
		if _, err := k.Trace(); err != nil {
			t.Errorf("%s: %v", k, err)
		}
	}
}

// TestClassificationMatchesPaper pins the paper's split: scalar loops
// {5, 6, 11, 13, 14}, vectorizable {1, 2, 3, 4, 7, 8, 9, 10, 12}.
func TestClassificationMatchesPaper(t *testing.T) {
	wantScalar := map[int]bool{5: true, 6: true, 11: true, 13: true, 14: true}
	for _, k := range All() {
		gotScalar := k.Class == Scalar
		if gotScalar != wantScalar[k.Number] {
			t.Errorf("LFK %d classified %s", k.Number, k.Class)
		}
	}
	if n := len(ByClass(Scalar)); n != 5 {
		t.Errorf("%d scalar loops, want 5", n)
	}
	if n := len(ByClass(Vectorizable)); n != 9 {
		t.Errorf("%d vectorizable loops, want 9", n)
	}
}

func TestGet(t *testing.T) {
	k, err := Get(7)
	if err != nil || k.Number != 7 {
		t.Errorf("Get(7) = %v, %v", k, err)
	}
	if _, err := Get(15); err == nil {
		t.Error("Get(15) did not fail")
	}
	if _, err := Get(0); err == nil {
		t.Error("Get(0) did not fail")
	}
}

// TestTraceDeterminism: two independent trace generations must be
// identical — all simulation results depend on it.
func TestTraceDeterminism(t *testing.T) {
	for _, k := range All() {
		a := k.MustTrace()
		b := k.MustTrace()
		if len(a.Ops) != len(b.Ops) {
			t.Errorf("%s: lengths differ: %d vs %d", k, len(a.Ops), len(b.Ops))
			continue
		}
		for i := range a.Ops {
			if a.Ops[i] != b.Ops[i] {
				t.Errorf("%s: op %d differs: %v vs %v", k, i, a.Ops[i], b.Ops[i])
				break
			}
		}
	}
}

// TestTracesHaveNoSpareCapacity: every built-in kernel's trace, scalar
// and vector, holds its ops in one exact-size slice.
func TestTracesHaveNoSpareCapacity(t *testing.T) {
	for _, k := range append(All(), VectorKernels()...) {
		tr := k.MustTrace()
		if cap(tr.Ops) != len(tr.Ops) {
			t.Errorf("%s (%s): %d ops with capacity %d", k, tr.Name, len(tr.Ops), cap(tr.Ops))
		}
	}
}

func TestSharedTraceCaches(t *testing.T) {
	k, _ := Get(3)
	if k.SharedTrace() != k.SharedTrace() {
		t.Error("SharedTrace returned different pointers")
	}
}

// TestInstructionMixesPlausible: the kernels must look like compiled
// Livermore loops — substantial memory traffic, float work in the
// float-heavy kernels, exactly the loop-control branch density their
// structure implies.
func TestInstructionMixesPlausible(t *testing.T) {
	for _, k := range All() {
		mix := k.SharedTrace().ComputeMix()
		memFrac := mix.Fraction(isa.Memory)
		if memFrac < 0.15 || memFrac > 0.65 {
			t.Errorf("%s: memory fraction %.2f outside [0.15, 0.65]", k, memFrac)
		}
		brFrac := mix.Fraction(isa.Branch)
		if brFrac <= 0 || brFrac > 0.20 {
			t.Errorf("%s: branch fraction %.2f outside (0, 0.20]", k, brFrac)
		}
		if mix.Loads == 0 {
			t.Errorf("%s: no loads", k)
		}
	}
	// The float-heavy kernels really are float-heavy.
	for _, n := range []int{1, 7, 8, 9} {
		k, _ := Get(n)
		mix := k.SharedTrace().ComputeMix()
		ffrac := mix.Fraction(isa.FloatAdd) + mix.Fraction(isa.FloatMul)
		if ffrac < 0.3 {
			t.Errorf("%s: float fraction %.2f, want >= 0.3", k, ffrac)
		}
	}
}

// TestBranchBehaviour: every kernel is loop-closing-branch shaped:
// almost all branches taken (backward loop branches), with the last
// dynamic branch of each loop falling through.
func TestBranchBehaviour(t *testing.T) {
	for _, k := range All() {
		mix := k.SharedTrace().ComputeMix()
		if mix.Branches < 2 {
			t.Errorf("%s: only %d branches", k, mix.Branches)
			continue
		}
		takenFrac := float64(mix.Taken) / float64(mix.Branches)
		if takenFrac < 0.7 {
			t.Errorf("%s: taken fraction %.2f, want >= 0.7 for loop branches", k, takenFrac)
		}
	}
}

// TestProgramsAreValid: the assembled kernels pass structural
// validation (branch targets, operand shapes).
func TestProgramsAreValid(t *testing.T) {
	for _, k := range All() {
		if err := k.Program().Validate(); err != nil {
			t.Errorf("%s: %v", k, err)
		}
	}
}

// TestConditionalBranchesDecideOnA0: the base architecture's
// conditional branches test A0 only; the kernels must respect that.
func TestConditionalBranchesDecideOnA0(t *testing.T) {
	for _, k := range All() {
		for i, in := range k.Program().Code {
			if in.Op.IsConditional() {
				var buf []isa.Reg
				reads := in.Reads(buf)
				if len(reads) != 1 || reads[0] != isa.A0 {
					t.Errorf("%s: instruction %d: conditional branch reads %v", k, i, reads)
				}
			}
		}
	}
}

// TestKernelSizes: dynamic instruction counts are in the intended
// simulation regime (hundreds to thousands of instructions).
func TestKernelSizes(t *testing.T) {
	for _, k := range All() {
		n := k.SharedTrace().Len()
		if n < 300 || n > 50_000 {
			t.Errorf("%s: %d dynamic instructions outside [300, 50000]", k, n)
		}
	}
}

// TestStringForms exercises the display helpers.
func TestStringForms(t *testing.T) {
	k, _ := Get(5)
	if got := k.String(); got != "LFK 5 (tri-diagonal elimination)" {
		t.Errorf("String() = %q", got)
	}
	if Scalar.String() != "Scalar" || Vectorizable.String() != "Vectorizable" {
		t.Error("class names wrong")
	}
}

func TestLCGDeterministic(t *testing.T) {
	a, b := newLCG(42), newLCG(42)
	for i := 0; i < 100; i++ {
		if a.float() != b.float() {
			t.Fatal("lcg not deterministic")
		}
	}
	// Values stay inside the documented (0.5, 1.5) band.
	g := newLCG(7)
	for i := 0; i < 1000; i++ {
		v := g.float()
		if v <= 0.5 || v >= 1.5 {
			t.Fatalf("lcg value %v outside (0.5, 1.5)", v)
		}
	}
}

func TestFillFloats(t *testing.T) {
	k, _ := Get(1)
	m := k.NewMachine()
	g := newLCG(99)
	vals := fillFloats(m, g, 0x9000, 8)
	for i, v := range vals {
		if m.Float(0x9000+int64(i)) != v {
			t.Fatalf("fillFloats mismatch at %d", i)
		}
	}
}
