package core

import (
	"errors"
	"strings"
	"testing"

	"mfup/internal/bus"
	"mfup/internal/isa"
	"mfup/internal/limits"
	"mfup/internal/loops"
	"mfup/internal/trace"
)

// limitsActual computes the §4 actual limit of a trace under cfg.
func limitsActual(tr *trace.Trace, cfg Config) float64 {
	return limits.Compute(tr, cfg.Latencies(), limits.Pure).Actual
}

// vop builds a vector trace op.
func (b *builder) vop(code isa.Opcode, dst, s1, s2 isa.Reg, vlen int16) *builder {
	return b.push(trace.Op{Code: code, Dst: dst, Src1: s1, Src2: s2, VLen: vlen})
}

func (b *builder) vload(dst isa.Reg, base int64, stride int64, vlen int16) *builder {
	return b.push(trace.Op{Code: isa.OpVLoad, Dst: dst, Src1: isa.A(1), Src2: isa.NoReg,
		Addr: base, Stride: stride, VLen: vlen})
}

func TestVectorSingleOp(t *testing.T) {
	// One 64-element FloatAdd: issue 0, first element at 6, last
	// element at 6+64 = 70.
	tr := new(builder).vop(isa.OpVFAdd, isa.V(1), isa.V(2), isa.V(3), 64).trace()
	if got := cycles(t, must(NewVector(M11BR5)), tr); got != 70 {
		t.Errorf("vector add = %d cycles, want 70", got)
	}
}

func TestVectorChaining(t *testing.T) {
	// Load (64 elements, first at 11) chained into a multiply: the
	// multiply issues at 12 (chain slot), completes at 12+7+64 = 83.
	tr := new(builder).
		vload(isa.V(1), 100, 1, 64).
		vop(isa.OpVFMul, isa.V(2), isa.V(1), isa.V(1), 64).
		trace()
	if got := cycles(t, must(NewVector(M11BR5)), tr); got != 83 {
		t.Errorf("chained multiply = %d cycles, want 83", got)
	}
}

func TestVectorUnitReservation(t *testing.T) {
	// Two independent 64-element adds share the one float adder: the
	// second cannot start until the first's 64 elements have entered
	// (cycle 64), finishing at 64+6+64 = 134.
	tr := new(builder).
		vop(isa.OpVFAdd, isa.V(1), isa.V(2), isa.V(3), 64).
		vop(isa.OpVFAdd, isa.V(4), isa.V(5), isa.V(6), 64).
		trace()
	if got := cycles(t, must(NewVector(M11BR5)), tr); got != 134 {
		t.Errorf("unit reservation = %d cycles, want 134", got)
	}
	// Distinct units overlap: add and multiply together end at the
	// multiply's 1+7+64 = 72.
	tr2 := new(builder).
		vop(isa.OpVFAdd, isa.V(1), isa.V(2), isa.V(3), 64).
		vop(isa.OpVFMul, isa.V(4), isa.V(5), isa.V(6), 64).
		trace()
	if got := cycles(t, must(NewVector(M11BR5)), tr2); got != 72 {
		t.Errorf("distinct units = %d cycles, want 72", got)
	}
}

func TestVectorWARBlocksRewrite(t *testing.T) {
	// V2 is read by the first add for 64 cycles; rewriting V2 must
	// wait until the readers are done (cycle 64), and finishes at
	// 64+7+64 = 135 — even though it uses a different unit.
	tr := new(builder).
		vop(isa.OpVFAdd, isa.V(1), isa.V(2), isa.V(3), 64).
		vop(isa.OpVFMul, isa.V(2), isa.V(4), isa.V(5), 64).
		trace()
	if got := cycles(t, must(NewVector(M11BR5)), tr); got != 135 {
		t.Errorf("WAR on vector register = %d cycles, want 135", got)
	}
}

func TestVectorElementReadWaitsForFullVector(t *testing.T) {
	// MoveSV (element read) needs the full 64-element result (cycle
	// 70), completing at 71.
	tr := new(builder).
		vop(isa.OpVFAdd, isa.V(1), isa.V(2), isa.V(3), 64).
		vop(isa.OpMoveSV, isa.S(1), isa.V(1), isa.A(2), 0).
		trace()
	if got := cycles(t, must(NewVector(M11BR5)), tr); got != 71 {
		t.Errorf("element read = %d cycles, want 71", got)
	}
}

func TestVectorScalarInterleave(t *testing.T) {
	// Scalar work on other units proceeds under a vector operation's
	// shadow; total time is the vector op's 70.
	tr := new(builder).
		vop(isa.OpVFAdd, isa.V(1), isa.V(2), isa.V(3), 64).
		op(isa.OpAAdd, isa.A(2), isa.A(3), isa.A(4)).
		op(isa.OpSImm, isa.S(1), isa.NoReg, isa.NoReg).
		trace()
	if got := cycles(t, must(NewVector(M11BR5)), tr); got != 70 {
		t.Errorf("scalar under vector shadow = %d cycles, want 70", got)
	}
}

func TestVectorKernelsValidateAndBeatScalar(t *testing.T) {
	// The extension's headline: each vectorized kernel computes the
	// right answers (validated in Trace) and clearly beats the scalar
	// CRAY-like machine on the paper's base timing. The fully
	// elementwise kernels manage 3x or better; LFK 2 and 4, whose
	// codings keep a serial scalar portion (the cascade bookkeeping,
	// the in-order band reduction), must still win by 2x.
	for _, vk := range loops.VectorKernels() {
		sk, err := loops.Get(vk.Number)
		if err != nil {
			t.Fatal(err)
		}
		vtr, err := vk.Trace()
		if err != nil {
			t.Errorf("%s: %v", vk, err)
			continue
		}
		factor := int64(3)
		if vk.Number == 2 || vk.Number == 4 {
			factor = 2
		}
		vec := must(must(NewVector(M11BR5)).RunChecked(vtr, Limits{}))
		cray := must(must(NewBasic(CRAYLike, M11BR5)).RunChecked(sk.SharedTrace(), Limits{}))
		if vec.Cycles*factor > cray.Cycles {
			t.Errorf("LFK %d: vector %d cycles vs scalar %d — less than %dx",
				vk.Number, vec.Cycles, cray.Cycles, factor)
		}
	}
}

func TestVectorVsSuperscalarCrossover(t *testing.T) {
	// The elementwise kernels favor the vector unit; the reduction
	// (LFK 3) is where a 4-unit RUU machine catches up — its serial
	// 64-lane reduction has no vector parallelism. This pins the
	// qualitative crossover.
	ruu := must(NewRUU(M11BR5.WithIssue(4, bus.BusN).WithRUU(100)))
	vec := must(NewVector(M11BR5))

	k12, _ := loops.VectorKernel(12)
	s12, _ := loops.Get(12)
	if v, r := must(vec.RunChecked(k12.MustTrace(), Limits{})).Cycles, must(ruu.RunChecked(s12.SharedTrace(), Limits{})).Cycles; v >= r {
		t.Errorf("LFK 12: vector (%d) should beat the RUU machine (%d)", v, r)
	}

	k3, _ := loops.VectorKernel(3)
	s3, _ := loops.Get(3)
	if v, r := must(vec.RunChecked(k3.MustTrace(), Limits{})).Cycles, must(ruu.RunChecked(s3.SharedTrace(), Limits{})).Cycles; v <= r {
		t.Errorf("LFK 3: the RUU machine (%d) should beat the vector unit (%d) on a reduction", r, v)
	}
}

func TestScalarMachinesRejectVectorTraces(t *testing.T) {
	vtr := new(builder).vop(isa.OpVFAdd, isa.V(1), isa.V(2), isa.V(3), 64).trace()
	for _, m := range []Machine{
		must(NewBasic(CRAYLike, M11BR5)),
		must(NewMultiIssue(M11BR5.WithIssue(2, bus.BusN))),
		must(NewMultiIssueOOO(M11BR5.WithIssue(2, bus.BusN))),
		must(NewRUU(M11BR5.WithIssue(2, bus.BusN).WithRUU(10))),
		must(NewScoreboard(M11BR5)),
		must(NewTomasulo(M11BR5)),
	} {
		_, err := m.RunChecked(vtr, Limits{})
		var serr *SimError
		if !errors.As(err, &serr) || !strings.Contains(serr.Error(), "scalar machine") {
			t.Errorf("%s: RunChecked on a vector trace = %v, want a *SimError naming the scalar machine", m.Name(), err)
		}
	}
}

func TestVectorMachineRunsScalarTraces(t *testing.T) {
	// The vector machine's scalar path must agree with CRAY-like
	// issue rules on ordinary traces — spot-check a dependent chain.
	tr := new(builder).
		op(isa.OpFAdd, isa.S(1), isa.S(0), isa.S(0)).
		op(isa.OpFAdd, isa.S(2), isa.S(1), isa.S(1)).
		trace()
	if got := cycles(t, must(NewVector(M11BR5)), tr); got != 12 {
		t.Errorf("scalar chain on vector machine = %d cycles, want 12", got)
	}
	// And on whole kernels it stays within a few percent of CRAYLike
	// (the models differ only in bus-less bookkeeping details).
	for _, k := range loops.All() {
		a := cycles(t, must(NewBasic(CRAYLike, M11BR5)), k.SharedTrace())
		b := cycles(t, must(NewVector(M11BR5)), k.SharedTrace())
		diff := float64(b-a) / float64(a)
		if diff > 0.05 || diff < -0.05 {
			t.Errorf("%s: vector machine scalar path differs from CRAY-like by %.1f%% (%d vs %d)",
				k, 100*diff, b, a)
		}
	}
}

func TestVectorMachineReusable(t *testing.T) {
	vk, _ := loops.VectorKernel(1)
	tr := vk.MustTrace()
	m := must(NewVector(M11BR5))
	if a, b := must(m.RunChecked(tr, Limits{})).Cycles, must(m.RunChecked(tr, Limits{})).Cycles; a != b {
		t.Errorf("reruns differ: %d vs %d", a, b)
	}
}

func TestVectorMachineRespectsLimits(t *testing.T) {
	// The chain-aware §4 bound is an upper bound for the vector
	// machine too.
	for _, vk := range loops.VectorKernels() {
		tr := vk.MustTrace()
		for _, cfg := range BaseConfigs() {
			lim := limitsActual(tr, cfg)
			r := must(must(NewVector(cfg)).RunChecked(tr, Limits{}))
			if got := r.IssueRate(); got > lim+1e-9 {
				t.Errorf("%s %s: vector machine rate %.4f exceeds limit %.4f",
					vk, cfg.Name(), got, lim)
			}
		}
	}
}
