package isa

import (
	"strings"
	"testing"
)

func TestRegConstructors(t *testing.T) {
	cases := []struct {
		reg   Reg
		class RegClass
		index int
		str   string
	}{
		{A(0), ClassA, 0, "A0"},
		{A(7), ClassA, 7, "A7"},
		{S(0), ClassS, 0, "S0"},
		{S(7), ClassS, 7, "S7"},
		{B(0), ClassB, 0, "B0"},
		{B(63), ClassB, 63, "B63"},
		{T(0), ClassT, 0, "T0"},
		{T(63), ClassT, 63, "T63"},
	}
	for _, c := range cases {
		if got := c.reg.Class(); got != c.class {
			t.Errorf("%s: class = %v, want %v", c.str, got, c.class)
		}
		if got := c.reg.Index(); got != c.index {
			t.Errorf("%s: index = %d, want %d", c.str, got, c.index)
		}
		if got := c.reg.String(); got != c.str {
			t.Errorf("String() = %q, want %q", got, c.str)
		}
		if !c.reg.Valid() {
			t.Errorf("%s: Valid() = false", c.str)
		}
	}
}

func TestRegDistinct(t *testing.T) {
	seen := make(map[Reg]string)
	add := func(r Reg, name string) {
		if prev, dup := seen[r]; dup {
			t.Fatalf("register collision: %s and %s share value %d", prev, name, r)
		}
		seen[r] = name
	}
	for i := 0; i < NumA; i++ {
		add(A(i), A(i).String())
	}
	for i := 0; i < NumS; i++ {
		add(S(i), S(i).String())
	}
	for i := 0; i < NumB; i++ {
		add(B(i), B(i).String())
	}
	for i := 0; i < NumT; i++ {
		add(T(i), T(i).String())
	}
	for i := 0; i < NumV; i++ {
		add(V(i), V(i).String())
	}
	add(VL, "VL")
	if len(seen) != NumRegs {
		t.Fatalf("got %d distinct registers, want %d", len(seen), NumRegs)
	}
}

func TestRegOutOfRangePanics(t *testing.T) {
	for _, f := range []func(){
		func() { A(8) }, func() { A(-1) },
		func() { S(8) }, func() { B(64) }, func() { T(64) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range register constructor did not panic")
				}
			}()
			f()
		}()
	}
}

func TestNoReg(t *testing.T) {
	if NoReg.Valid() {
		t.Error("NoReg.Valid() = true")
	}
	if got := NoReg.String(); got != "-" {
		t.Errorf("NoReg.String() = %q, want -", got)
	}
}

func TestA0IsBranchRegister(t *testing.T) {
	if A0 != A(0) {
		t.Errorf("A0 = %v, want A(0)", A0)
	}
}

func TestLatencies(t *testing.T) {
	lat := NewLatencies(11, 5)
	want := map[Unit]int{
		AddrAdd: 2, AddrMul: 6, ScalarAdd: 3, ScalarShift: 2,
		ScalarLogical: 1, PopLZ: 3, FloatAdd: 6, FloatMul: 7,
		Recip: 14, Transfer: 1, Memory: 11, Branch: 5,
	}
	for u, w := range want {
		if got := lat.Of(u); got != w {
			t.Errorf("latency of %s = %d, want %d", u, got, w)
		}
	}
	fast := NewLatencies(5, 2)
	if fast.Of(Memory) != 5 || fast.Of(Branch) != 2 {
		t.Errorf("fast config: memory=%d branch=%d, want 5/2", fast.Of(Memory), fast.Of(Branch))
	}
	// Fixed latencies must not vary across configurations.
	if lat.Of(FloatMul) != fast.Of(FloatMul) {
		t.Error("FloatMul latency changed with configuration")
	}
}

func TestLatenciesPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewLatencies(0, 5) did not panic")
		}
	}()
	NewLatencies(0, 5)
}

func TestOpcodeProperties(t *testing.T) {
	cases := []struct {
		op      Opcode
		unit    Unit
		parcels int
	}{
		{OpPass, Transfer, 1},
		{OpAAdd, AddrAdd, 1},
		{OpAMul, AddrMul, 1},
		{OpAImm, Transfer, 2},
		{OpAAddImm, AddrAdd, 2},
		{OpSAdd, ScalarAdd, 1},
		{OpSAnd, ScalarLogical, 1},
		{OpSShiftL, ScalarShift, 2},
		{OpSPop, PopLZ, 1},
		{OpFAdd, FloatAdd, 1},
		{OpFMul, FloatMul, 1},
		{OpRecip, Recip, 1},
		{OpMoveST, Transfer, 1},
		{OpLoadS, Memory, 2},
		{OpStoreA, Memory, 2},
		{OpJ, Branch, 2},
		{OpJAZ, Branch, 2},
	}
	for _, c := range cases {
		if got := c.op.Unit(); got != c.unit {
			t.Errorf("%s: unit = %s, want %s", c.op, got, c.unit)
		}
		if got := c.op.Parcels(); got != c.parcels {
			t.Errorf("%s: parcels = %d, want %d", c.op, got, c.parcels)
		}
	}
}

func TestOpcodePredicates(t *testing.T) {
	if !OpJ.IsBranch() || !OpJAZ.IsBranch() || OpFAdd.IsBranch() {
		t.Error("IsBranch misclassifies")
	}
	if OpJ.IsConditional() || !OpJAN.IsConditional() {
		t.Error("IsConditional misclassifies")
	}
	if !OpLoadS.IsLoad() || !OpLoadA.IsLoad() || OpStoreS.IsLoad() {
		t.Error("IsLoad misclassifies")
	}
	if !OpStoreS.IsStore() || !OpStoreA.IsStore() || OpLoadA.IsStore() {
		t.Error("IsStore misclassifies")
	}
	if !OpLoadS.IsMemory() || !OpStoreA.IsMemory() || OpFMul.IsMemory() {
		t.Error("IsMemory misclassifies")
	}
}

func TestInstructionReads(t *testing.T) {
	var buf []Reg

	add := Instruction{Op: OpSAdd, Dst: S(1), Src1: S(2), Src2: S(3)}
	got := add.Reads(buf[:0])
	if len(got) != 2 || got[0] != S(2) || got[1] != S(3) {
		t.Errorf("SAdd reads = %v, want [S2 S3]", got)
	}

	// Conditional branches read A0 implicitly.
	jan := Instruction{Op: OpJAN, Dst: NoReg, Src1: NoReg, Src2: NoReg}
	got = jan.Reads(buf[:0])
	if len(got) != 1 || got[0] != A0 {
		t.Errorf("JAN reads = %v, want [A0]", got)
	}

	// Unconditional jump reads nothing.
	j := Instruction{Op: OpJ, Dst: NoReg, Src1: NoReg, Src2: NoReg}
	if got = j.Reads(buf[:0]); len(got) != 0 {
		t.Errorf("J reads = %v, want []", got)
	}

	// Stores read base and data registers.
	st := Instruction{Op: OpStoreS, Dst: NoReg, Src1: A(2), Src2: S(1)}
	got = st.Reads(buf[:0])
	if len(got) != 2 || got[0] != A(2) || got[1] != S(1) {
		t.Errorf("StoreS reads = %v, want [A2 S1]", got)
	}
}

func TestProgramValidate(t *testing.T) {
	good := &Program{
		Name: "good",
		Code: []Instruction{
			{Op: OpAImm, Dst: A(1), Src1: NoReg, Src2: NoReg, Imm: 1},
			{Op: OpJ, Dst: NoReg, Src1: NoReg, Src2: NoReg, Target: 0},
		},
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid program rejected: %v", err)
	}

	cases := []struct {
		name string
		in   Instruction
		want string
	}{
		{"branch target out of range", Instruction{Op: OpJ, Dst: NoReg, Src1: NoReg, Src2: NoReg, Target: 99}, "target"},
		{"missing destination", Instruction{Op: OpSAdd, Dst: NoReg, Src1: S(1), Src2: S(2)}, "destination"},
		{"missing first source", Instruction{Op: OpSAdd, Dst: S(1), Src1: NoReg, Src2: S(2)}, "first source"},
		{"missing second source", Instruction{Op: OpSAdd, Dst: S(1), Src1: S(2), Src2: NoReg}, "second source"},
		{"store missing data", Instruction{Op: OpStoreS, Dst: NoReg, Src1: A(1), Src2: NoReg}, "second source"},
	}
	for _, c := range cases {
		p := &Program{Name: c.name, Code: []Instruction{c.in}}
		err := p.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted bad program", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestDisassembleLabels(t *testing.T) {
	p := &Program{
		Name: "p",
		Code: []Instruction{
			{Op: OpAImm, Dst: A(1), Src1: NoReg, Src2: NoReg, Imm: 3},
			{Op: OpJAN, Dst: NoReg, Src1: NoReg, Src2: NoReg, Target: 0},
		},
		Labels: map[string]int{"top": 0},
	}
	dis := p.Disassemble()
	if !strings.Contains(dis, "top:") {
		t.Errorf("disassembly lost label:\n%s", dis)
	}
	if !strings.Contains(dis, "JAN top") {
		t.Errorf("disassembly did not symbolize branch target:\n%s", dis)
	}
}

func TestUnitString(t *testing.T) {
	for u := 0; u < NumUnits; u++ {
		s := Unit(u).String()
		if s == "" || strings.HasPrefix(s, "Unit(") {
			t.Errorf("unit %d has no name", u)
		}
	}
}

func TestVectorRegisters(t *testing.T) {
	if V(0).Class() != ClassV || V(7).Index() != 7 || V(3).String() != "V3" {
		t.Error("vector register properties wrong")
	}
	if VL.Class() != ClassVL || VL.String() != "VL" || !VL.Valid() {
		t.Error("VL register properties wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("V(8) did not panic")
		}
	}()
	V(8)
}

func TestVectorOpcodes(t *testing.T) {
	cases := []struct {
		op   Opcode
		unit Unit
	}{
		{OpVLSet, Transfer}, {OpVLoad, Memory}, {OpVStore, Memory},
		{OpVFAdd, FloatAdd}, {OpVFSub, FloatAdd}, {OpVFMul, FloatMul},
		{OpVSFAdd, FloatAdd}, {OpVSFMul, FloatMul}, {OpMoveSV, Transfer},
	}
	for _, c := range cases {
		if !c.op.IsVector() {
			t.Errorf("%s: IsVector() = false", c.op)
		}
		if c.op.Unit() != c.unit {
			t.Errorf("%s: unit %s, want %s", c.op, c.op.Unit(), c.unit)
		}
		if c.op.Parcels() != 1 {
			t.Errorf("%s: parcels != 1", c.op)
		}
	}
	if OpFAdd.IsVector() || OpJ.IsVector() {
		t.Error("scalar opcode classified as vector")
	}
	if !OpVLoad.IsVectorMemory() || !OpVStore.IsVectorMemory() || OpVFAdd.IsVectorMemory() {
		t.Error("IsVectorMemory misclassifies")
	}
}

func TestVectorReadsIncludeVL(t *testing.T) {
	var buf []Reg
	add := Instruction{Op: OpVFAdd, Dst: V(1), Src1: V(2), Src2: V(3)}
	got := add.Reads(buf[:0])
	if len(got) != 3 || got[2] != VL {
		t.Errorf("vector add reads %v, want [V2 V3 VL]", got)
	}
	vlset := Instruction{Op: OpVLSet, Dst: VL, Src1: A(4), Src2: NoReg}
	got = vlset.Reads(buf[:0])
	if len(got) != 1 || got[0] != A(4) {
		t.Errorf("VLSet reads %v, want [A4]", got)
	}
}

func TestInstructionStringAllOpcodes(t *testing.T) {
	// Every opcode renders without the "?" fallback (full String
	// coverage also guards against forgetting a case when opcodes are
	// added).
	for op := Opcode(0); int(op) < numAllOpcodes; op++ {
		in := Instruction{Op: op, Dst: S(1), Src1: S(2), Src2: S(3)}
		switch op {
		case OpVLSet:
			in = Instruction{Op: op, Dst: VL, Src1: A(1), Src2: NoReg}
		case OpVLoad:
			in = Instruction{Op: op, Dst: V(1), Src1: A(1), Src2: NoReg, Imm: 2}
		case OpVStore:
			in = Instruction{Op: op, Dst: NoReg, Src1: A(1), Src2: V(1), Imm: 2}
		}
		if s := in.String(); strings.Contains(s, "?") {
			t.Errorf("opcode %d (%s) renders as %q", op, op, s)
		}
	}
}

func TestLatencyMax(t *testing.T) {
	for _, tc := range []struct {
		l    Latencies
		want int
	}{
		{NewLatencies(11, 5), 14}, // Recip
		{NewLatencies(65, 5), 65},
		{NewLatencies(5, 200), 200},
		{NewLatencies(11, 5).WithOverride(FloatAdd, 70), 70},
	} {
		if got := tc.l.Max(); got != tc.want {
			t.Errorf("Max() = %d, want %d", got, tc.want)
		}
	}
}

func TestLatencyOverride(t *testing.T) {
	base := NewLatencies(11, 5)
	l := base.WithOverride(FloatMul, 4)
	if l.Of(FloatMul) != 4 {
		t.Errorf("override: FloatMul = %d, want 4", l.Of(FloatMul))
	}
	if base.Of(FloatMul) != 7 {
		t.Errorf("WithOverride mutated the receiver: FloatMul = %d", base.Of(FloatMul))
	}
	if l.Of(FloatAdd) != 6 || l.Of(Memory) != 11 {
		t.Error("override touched unrelated units")
	}
	defer func() {
		if recover() == nil {
			t.Error("WithOverride(0) did not panic")
		}
	}()
	base.WithOverride(FloatAdd, 0)
}

func TestParseUnit(t *testing.T) {
	for u := 0; u < NumUnits; u++ {
		got, err := ParseUnit(Unit(u).String())
		if err != nil || got != Unit(u) {
			t.Errorf("ParseUnit(%q) = %v, %v", Unit(u).String(), got, err)
		}
	}
	if _, err := ParseUnit("Teleport"); err == nil {
		t.Error("unknown unit name accepted")
	}
}

func TestDefaultLatency(t *testing.T) {
	if DefaultLatency(FloatMul) != 7 || DefaultLatency(Recip) != 14 {
		t.Error("fixed latencies wrong")
	}
	if DefaultLatency(Memory) != 0 || DefaultLatency(Branch) != 0 {
		t.Error("machine-parameter units must report 0")
	}
}
