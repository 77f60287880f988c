package sched

import (
	"testing"

	"mfup/internal/asm"
	"mfup/internal/core"
	"mfup/internal/emu"
	"mfup/internal/isa"
	"mfup/internal/loops"
)

// must returns v, panicking on err: the machines a test builds and the
// runs it makes are expected to succeed.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

var lat115 = isa.NewLatencies(11, 5)

// TestPreservesKernelSemantics is the scheduler's load-bearing test:
// every Livermore kernel, after scheduling, still computes bit-exact
// results against its reference implementation.
func TestPreservesKernelSemantics(t *testing.T) {
	for _, k := range loops.All() {
		s := Schedule(k.Program(), lat115)
		if err := s.Validate(); err != nil {
			t.Errorf("%s: scheduled program invalid: %v", k, err)
			continue
		}
		m := k.NewMachine()
		if _, err := m.Run(s); err != nil {
			t.Errorf("%s: scheduled program failed: %v", k, err)
			continue
		}
		if err := k.Validate(m); err != nil {
			t.Errorf("%s: scheduled program computed wrong results: %v", k, err)
		}
	}
}

// TestSchedulingHelpsOrIsNeutral: on the single-issue CRAY-like
// machine, scheduled code should run at least as fast as the original
// on the suite aggregate, and never collapse on any single loop.
func TestSchedulingHelpsOrIsNeutral(t *testing.T) {
	machine := must(core.NewBasic(core.CRAYLike, core.M11BR5))
	var sumBase, sumSched float64
	for _, k := range loops.All() {
		base := must(machine.RunChecked(k.SharedTrace(), core.Limits{})).IssueRate()

		s := Schedule(k.Program(), core.M11BR5.Latencies())
		m := k.NewMachine()
		tr, err := m.Run(s)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		sched := must(machine.RunChecked(tr, core.Limits{})).IssueRate()

		if sched < 0.9*base {
			t.Errorf("%s: scheduling slowed the loop from %.4f to %.4f", k, base, sched)
		}
		sumBase += base
		sumSched += sched
	}
	if sumSched < sumBase {
		t.Errorf("scheduling hurt the aggregate: %.4f -> %.4f", sumBase, sumSched)
	}
}

func TestLengthAndLabelsUnchanged(t *testing.T) {
	for _, k := range loops.All() {
		p := k.Program()
		s := Schedule(p, lat115)
		if len(s.Code) != len(p.Code) {
			t.Errorf("%s: length changed %d -> %d", k, len(p.Code), len(s.Code))
		}
		for name, idx := range p.Labels {
			if s.Labels[name] != idx {
				t.Errorf("%s: label %q moved %d -> %d", k, name, idx, s.Labels[name])
			}
		}
	}
}

func TestOriginalProgramUntouched(t *testing.T) {
	k, _ := loops.Get(7)
	p := k.Program()
	before := append([]isa.Instruction(nil), p.Code...)
	Schedule(p, lat115)
	for i := range before {
		if p.Code[i] != before[i] {
			t.Fatalf("Schedule mutated its input at instruction %d", i)
		}
	}
}

// TestReordersIndependentWork: a block with a long-latency head and
// independent tail work should hoist the long-latency op's consumers
// apart — concretely, the load's dependent must no longer be adjacent
// to it.
func TestReordersIndependentWork(t *testing.T) {
	p, err := asm.Assemble("t", `
    A1 = 64
    S1 = [A1]        ; 11-cycle load
    S2 = S1 +F S1    ; dependent on the load
    S3 = 5
    S4 = 7
    S5 = S3 + S4     ; independent integer work
    [A1 + 1] = S2
    [A1 + 2] = S5
`)
	if err != nil {
		t.Fatal(err)
	}
	s := Schedule(p, lat115)

	// Find the load and its consumer in the scheduled order.
	loadAt, consumerAt := -1, -1
	for i, in := range s.Code {
		if in.Op == isa.OpLoadS {
			loadAt = i
		}
		if in.Op == isa.OpFAdd {
			consumerAt = i
		}
	}
	if loadAt < 0 || consumerAt < 0 {
		t.Fatal("scheduled program lost instructions")
	}
	if consumerAt-loadAt < 2 {
		t.Errorf("scheduler left load and consumer adjacent (positions %d, %d):\n%s",
			loadAt, consumerAt, s.Disassemble())
	}

	// Semantics must hold.
	m := emu.New(128)
	m.SetFloat(64, 2.0)
	if _, err := m.Run(s); err != nil {
		t.Fatal(err)
	}
	if m.Float(65) != 4.0 || m.Int(66) != 12 {
		t.Errorf("scheduled program computed %v, %v; want 4.0, 12", m.Float(65), m.Int(66))
	}
}

// TestRespectsWAR: a reader must not be overtaken by a later writer
// of the same register.
func TestRespectsWAR(t *testing.T) {
	p, err := asm.Assemble("t", `
    A1 = 64
    S1 = 10
    S2 = S1 + S1     ; reads S1 (old value)
    S1 = 99          ; writes S1 after the read
    [A1] = S2
    [A1 + 1] = S1
`)
	if err != nil {
		t.Fatal(err)
	}
	s := Schedule(p, lat115)
	m := emu.New(128)
	if _, err := m.Run(s); err != nil {
		t.Fatal(err)
	}
	if m.Int(64) != 20 || m.Int(65) != 99 {
		t.Errorf("WAR violated: memory = %d, %d; want 20, 99", m.Int(64), m.Int(65))
	}
}

// TestRespectsStoreLoadOrder: a load may not move above a store that
// might alias it.
func TestRespectsStoreLoadOrder(t *testing.T) {
	p, err := asm.Assemble("t", `
    A1 = 64
    S1 = 7
    [A1] = S1        ; store
    S2 = [A1]        ; load of the same location
    S3 = S2 + S2
    [A1 + 1] = S3
`)
	if err != nil {
		t.Fatal(err)
	}
	s := Schedule(p, lat115)
	m := emu.New(128)
	if _, err := m.Run(s); err != nil {
		t.Fatal(err)
	}
	if m.Int(65) != 14 {
		t.Errorf("store->load order violated: got %d, want 14", m.Int(65))
	}
}

// TestBranchStaysLast: the loop-closing branch must terminate its
// block after scheduling.
func TestBranchStaysLast(t *testing.T) {
	for _, k := range loops.All() {
		s := Schedule(k.Program(), lat115)
		for i, in := range s.Code {
			if in.Op.IsBranch() && i+1 < len(s.Code) {
				// The next instruction must begin a block: it is either
				// a branch target or simply the fall-through leader;
				// what must NOT happen is a non-branch instruction of
				// the same original block following the branch. Since
				// blocks keep their extents, it suffices that the
				// instruction count between branches matches the
				// original program's.
				continue
			}
		}
		// Structural check: branch positions are identical to the
		// original (branches terminate blocks, and blocks keep their
		// extents).
		p := k.Program()
		for i := range p.Code {
			if p.Code[i].Op.IsBranch() != s.Code[i].Op.IsBranch() {
				t.Errorf("%s: branch moved from/to position %d", k, i)
			}
		}
	}
}

func TestEmptyAndTinyPrograms(t *testing.T) {
	empty := &isa.Program{Name: "empty", Labels: map[string]int{}}
	if got := Schedule(empty, lat115); len(got.Code) != 0 {
		t.Error("empty program grew")
	}
	one, _ := asm.Assemble("one", "PASS")
	if got := Schedule(one, lat115); len(got.Code) != 1 {
		t.Error("single-instruction program changed length")
	}
}
