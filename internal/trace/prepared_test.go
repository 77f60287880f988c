package trace

import (
	"sync"
	"testing"

	"mfup/internal/isa"
)

// preparedTestTrace is a small stream exercising every classification:
// an ALU op, a load, a store, a not-taken conditional branch, a taken
// unconditional branch, and a trailing op behind the taken branch.
func preparedTestTrace() *Trace {
	return &Trace{
		Name: "prepared-test",
		Ops: []Op{
			{Seq: 0, Code: isa.OpSAdd, Unit: isa.ScalarAdd, Dst: isa.S(1), Src1: isa.S(2), Src2: isa.S(3)},
			{Seq: 1, Code: isa.OpLoadS, Unit: isa.Memory, Dst: isa.S(4), Src1: isa.A(1), Src2: isa.NoReg, Addr: 64},
			{Seq: 2, Code: isa.OpStoreS, Unit: isa.Memory, Dst: isa.NoReg, Src1: isa.A(2), Src2: isa.S(4), Addr: 128},
			{Seq: 3, Code: isa.OpJAZ, Unit: isa.Branch, Dst: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg, Taken: false},
			{Seq: 4, Code: isa.OpJ, Unit: isa.Branch, Dst: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg, Taken: true},
			{Seq: 5, Code: isa.OpAAdd, Unit: isa.AddrAdd, Dst: isa.A(3), Src1: isa.A(4), Src2: isa.A(5)},
		},
	}
}

func TestPrepareFlags(t *testing.T) {
	p := Prepare(preparedTestTrace())
	want := []OpFlags{
		FlagHasDst,
		FlagMemory | FlagLoad | FlagHasDst,
		FlagMemory | FlagStore,
		FlagBranch | FlagConditional,
		FlagBranch | FlagTaken,
		FlagHasDst,
	}
	for i, w := range want {
		if got := p.Ops[i].Flags; got != w {
			t.Errorf("op %d: flags = %b, want %b", i, got, w)
		}
	}
	if p.FirstVector != -1 {
		t.Errorf("FirstVector = %d for a scalar trace, want -1", p.FirstVector)
	}
}

func TestPrepareAddrIDs(t *testing.T) {
	tr := preparedTestTrace()
	// A second load of address 64 must share the first one's id.
	tr.Ops = append(tr.Ops, Op{
		Seq: 6, Code: isa.OpLoadS, Unit: isa.Memory,
		Dst: isa.S(5), Src1: isa.A(1), Src2: isa.NoReg, Addr: 64,
	})
	p := Prepare(tr)
	if p.NumAddrs != 2 {
		t.Fatalf("NumAddrs = %d, want 2 (addresses 64 and 128)", p.NumAddrs)
	}
	wantIDs := []int32{-1, 0, 1, -1, -1, -1, 0}
	for i, w := range wantIDs {
		if got := p.Ops[i].AddrID; got != w {
			t.Errorf("op %d: AddrID = %d, want %d", i, got, w)
		}
	}
	for i := range p.Ops {
		if id := p.Ops[i].AddrID; id >= 0 && int(id) >= p.NumAddrs {
			t.Errorf("op %d: AddrID %d out of range [0,%d)", i, id, p.NumAddrs)
		}
	}
}

func TestPrepareReadsMatchOpReads(t *testing.T) {
	tr := preparedTestTrace()
	p := Prepare(tr)
	var buf [3]isa.Reg
	for i := range tr.Ops {
		want := tr.Ops[i].Reads(buf[:0])
		got := p.Ops[i].Reads()
		if len(got) != len(want) {
			t.Fatalf("op %d: %d reads, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Errorf("op %d read %d: %s, want %s", i, j, got[j], want[j])
			}
		}
	}
}

func TestPrepareFirstVector(t *testing.T) {
	tr := preparedTestTrace()
	tr.Ops = append(tr.Ops, Op{
		Seq: 6, Code: isa.OpVFAdd, Unit: isa.FloatAdd,
		Dst: isa.V(1), Src1: isa.V(2), Src2: isa.V(3), VLen: 64,
	})
	p := Prepare(tr)
	if p.FirstVector != 6 {
		t.Errorf("FirstVector = %d, want 6", p.FirstVector)
	}
	if !p.Ops[6].Flags.Has(FlagVector) {
		t.Error("vector op missing FlagVector")
	}
}

func TestPreparedWindow(t *testing.T) {
	p := Prepare(preparedTestTrace()) // taken branch at index 4, len 6
	cases := []struct{ pos, w, want int }{
		{0, 1, 1}, // capacity bounds the window
		{0, 4, 4}, // not-taken branch at 3 does not cut it short
		{0, 8, 5}, // ends just after the taken branch at 4
		{4, 8, 5}, // window starting on the taken branch holds only it
		{5, 8, 6}, // past the last taken branch: runs to the end
		{6, 8, 6}, // empty window at the end of the trace
	}
	for _, c := range cases {
		if got := p.Window(c.pos, c.w); got != c.want {
			t.Errorf("Window(%d, %d) = %d, want %d", c.pos, c.w, got, c.want)
		}
	}
}

// TestPreparedCachedAndConcurrent exercises the sync.Once cache:
// every concurrent caller must observe the same Prepared pointer.
func TestPreparedCachedAndConcurrent(t *testing.T) {
	tr := preparedTestTrace()
	const goroutines = 8
	got := make([]*Prepared, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			got[g] = tr.Prepared()
		}()
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if got[g] != got[0] {
			t.Fatalf("goroutine %d saw a different Prepared than goroutine 0", g)
		}
	}
	if got[0] != tr.Prepared() {
		t.Error("later Prepared() call returned a different cache")
	}
}
