package mfup_test

import (
	"fmt"
	"log"
	"strings"
	"testing"

	"mfup"
)

// must returns v, panicking on err: the machines a test builds and the
// runs it makes are expected to succeed.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func TestPublicKernelAccess(t *testing.T) {
	if got := len(mfup.Kernels()); got != 14 {
		t.Fatalf("Kernels() returned %d, want 14", got)
	}
	if got := len(mfup.KernelsByClass(mfup.Scalar)); got != 5 {
		t.Errorf("scalar kernels = %d, want 5", got)
	}
	if got := len(mfup.KernelsByClass(mfup.Vectorizable)); got != 9 {
		t.Errorf("vectorizable kernels = %d, want 9", got)
	}
	if _, err := mfup.GetKernel(99); err == nil {
		t.Error("GetKernel(99) did not fail")
	}
	k := mfup.MustKernel(5)
	if k.Number != 5 {
		t.Errorf("MustKernel(5).Number = %d", k.Number)
	}
}

func TestMustKernelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustKernel(0) did not panic")
		}
	}()
	mfup.MustKernel(0)
}

func TestEndToEndSimulation(t *testing.T) {
	k := mfup.MustKernel(1)
	tr := k.SharedTrace()
	for _, cfg := range mfup.BaseConfigs() {
		var prev float64
		for _, org := range mfup.Organizations() {
			r := must(must(mfup.NewBasic(org, cfg)).RunChecked(tr, mfup.SimLimits{}))
			rate := r.IssueRate()
			if rate <= 0 || rate >= 1 {
				t.Errorf("%s %s: rate %.3f outside (0,1)", org, cfg.Name(), rate)
			}
			if rate < prev-1e-12 {
				t.Errorf("%s %s: organization ordering violated", org, cfg.Name())
			}
			prev = rate
		}
	}
}

func TestAdvancedMachinesViaFacade(t *testing.T) {
	tr := mfup.MustKernel(7).SharedTrace()
	cray := must(must(mfup.NewBasic(mfup.CRAYLike, mfup.M11BR5)).RunChecked(tr, mfup.SimLimits{})).IssueRate()
	multi := must(must(mfup.NewMultiIssue(mfup.M11BR5.WithIssue(4, mfup.BusN))).RunChecked(tr, mfup.SimLimits{})).IssueRate()
	ooo := must(must(mfup.NewMultiIssueOOO(mfup.M11BR5.WithIssue(4, mfup.BusN))).RunChecked(tr, mfup.SimLimits{})).IssueRate()
	ruu := must(must(mfup.NewRUU(mfup.M11BR5.WithIssue(4, mfup.BusN).WithRUU(50))).RunChecked(tr, mfup.SimLimits{})).IssueRate()
	if !(cray <= multi+1e-9 && multi <= ooo+1e-9 && ooo < ruu) {
		t.Errorf("machine sophistication ordering violated: cray=%.3f multi=%.3f ooo=%.3f ruu=%.3f",
			cray, multi, ooo, ruu)
	}
}

func TestLimitsViaFacade(t *testing.T) {
	tr := mfup.MustKernel(12).SharedTrace()
	pure := mfup.ComputeLimits(tr, mfup.M11BR2, mfup.Pure)
	serial := mfup.ComputeLimits(tr, mfup.M11BR2, mfup.Serial)
	if pure.Actual <= serial.Actual {
		t.Errorf("pure limit %.3f should exceed serial %.3f on an independent-iteration loop",
			pure.Actual, serial.Actual)
	}
}

func TestCustomProgramWorkflow(t *testing.T) {
	prog, err := mfup.Assemble("triple", `
    A1 = 64
    S1 = [A1]
    S2 = S1 +F S1
    S2 = S2 +F S1
    [A1 + 1] = S2
`)
	if err != nil {
		t.Fatal(err)
	}
	m := mfup.NewEmuMachine(128)
	m.SetFloat(64, 1.5)
	tr, err := mfup.TraceProgram(m, prog)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Float(65); got != 4.5 {
		t.Errorf("program computed %v, want 4.5", got)
	}
	r := must(must(mfup.NewBasic(mfup.CRAYLike, mfup.M5BR2)).RunChecked(tr, mfup.SimLimits{}))
	if r.Instructions != 5 || r.Cycles == 0 {
		t.Errorf("simulation result %+v", r)
	}
}

func TestAssembleErrorSurface(t *testing.T) {
	_, err := mfup.Assemble("bad", "J nowhere")
	if err == nil || !strings.Contains(err.Error(), "undefined label") {
		t.Errorf("Assemble error = %v", err)
	}
}

func TestGenerateTable(t *testing.T) {
	tb, err := mfup.GenerateTable(1)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Number != 1 || len(tb.Rows) == 0 {
		t.Errorf("table = %+v", tb)
	}
	if _, err := mfup.GenerateTable(0); err == nil {
		t.Error("GenerateTable(0) did not fail")
	}
}

// ExampleNewBasic is the README quick start.
func ExampleNewBasic() {
	k := mfup.MustKernel(1)
	m, err := mfup.NewBasic(mfup.CRAYLike, mfup.M11BR5)
	if err != nil {
		log.Fatal(err)
	}
	r, err := m.RunChecked(k.SharedTrace(), mfup.SimLimits{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %.2f instructions/cycle\n", k, r.IssueRate())
	// Output: LFK 1 (hydro fragment): 0.29 instructions/cycle
}

// ExampleComputeLimits shows the §4 bound for the same kernel.
func ExampleComputeLimits() {
	k := mfup.MustKernel(1)
	l := mfup.ComputeLimits(k.SharedTrace(), mfup.M11BR5, mfup.Pure)
	fmt.Printf("dataflow limit %.2f instructions/cycle\n", l.Actual)
	// Output: dataflow limit 1.90 instructions/cycle
}

func TestVectorFacade(t *testing.T) {
	vks := mfup.VectorKernels()
	if len(vks) != 9 {
		t.Fatalf("VectorKernels returned %d, want 9", len(vks))
	}
	vk, err := mfup.VectorKernel(7)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := vk.Trace()
	if err != nil {
		t.Fatal(err)
	}
	vec := must(must(mfup.NewVector(mfup.M11BR5)).RunChecked(tr, mfup.SimLimits{}))
	sk := mfup.MustKernel(7)
	cray := must(must(mfup.NewBasic(mfup.CRAYLike, mfup.M11BR5)).RunChecked(sk.SharedTrace(), mfup.SimLimits{}))
	if vec.Cycles*3 > cray.Cycles {
		t.Errorf("vector LFK 7 (%d cycles) not clearly faster than scalar (%d)", vec.Cycles, cray.Cycles)
	}
	if _, err := mfup.VectorKernel(5); err == nil {
		t.Error("VectorKernel(5) should fail: a recurrence has no vector coding")
	}
}

func TestDependencyResolutionFacade(t *testing.T) {
	tr := mfup.MustKernel(5).SharedTrace()
	cray := must(must(mfup.NewBasic(mfup.CRAYLike, mfup.M11BR5)).RunChecked(tr, mfup.SimLimits{})).IssueRate()
	sb := must(must(mfup.NewScoreboard(mfup.M11BR5)).RunChecked(tr, mfup.SimLimits{})).IssueRate()
	tom := must(must(mfup.NewTomasulo(mfup.M11BR5)).RunChecked(tr, mfup.SimLimits{})).IssueRate()
	if !(cray <= sb && sb <= tom) {
		t.Errorf("dependency-resolution ordering violated: %.3f, %.3f, %.3f", cray, sb, tom)
	}
}

func TestScheduleProgramFacade(t *testing.T) {
	k := mfup.MustKernel(7)
	s := mfup.ScheduleProgram(k.Program(), mfup.M11BR5)
	m := k.NewMachine()
	tr, err := mfup.TraceProgram(m, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Validate(m); err != nil {
		t.Fatalf("scheduled program invalid: %v", err)
	}
	base := must(must(mfup.NewBasic(mfup.CRAYLike, mfup.M11BR5)).RunChecked(k.SharedTrace(), mfup.SimLimits{})).IssueRate()
	sched := must(must(mfup.NewBasic(mfup.CRAYLike, mfup.M11BR5)).RunChecked(tr, mfup.SimLimits{})).IssueRate()
	if sched <= base {
		t.Errorf("scheduling did not help LFK 7: %.3f -> %.3f", base, sched)
	}
}

func TestScaledKernelFacade(t *testing.T) {
	k, err := mfup.ScaledKernel(1, 500)
	if err != nil {
		t.Fatal(err)
	}
	if k.N != 500 {
		t.Errorf("scaled N = %d", k.N)
	}
	if _, err := mfup.ScaledKernel(2, 99); err == nil {
		t.Error("non-power-of-two kernel 2 length accepted")
	}
}

func TestPerfectBranchesFacade(t *testing.T) {
	tr := mfup.MustKernel(12).SharedTrace()
	base := must(must(mfup.NewBasic(mfup.CRAYLike, mfup.M11BR5)).RunChecked(tr, mfup.SimLimits{})).Cycles
	ideal := must(must(mfup.NewBasic(mfup.CRAYLike, mfup.M11BR5.WithPerfectBranches())).RunChecked(tr, mfup.SimLimits{})).Cycles
	if ideal >= base {
		t.Errorf("perfect branches did not help: %d -> %d", base, ideal)
	}
}

func TestSection33Facade(t *testing.T) {
	tb := mfup.GenerateSection33()
	if len(tb.Rows) != 8 {
		t.Errorf("supplement has %d rows, want 8", len(tb.Rows))
	}
}
