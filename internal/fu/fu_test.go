package fu

import (
	"math/rand"
	"slices"
	"testing"

	"mfup/internal/isa"
)

func pool() *Pool { return NewPool(isa.NewLatencies(11, 5)) }

func TestNonSegmentedOccupiesFullLatency(t *testing.T) {
	p := pool() // non-segmented by default
	done := p.Accept(isa.FloatMul, 0)
	if done != 7 {
		t.Fatalf("FloatMul completion = %d, want 7", done)
	}
	if got := p.EarliestAccept(isa.FloatMul, 1); got != 7 {
		t.Errorf("non-segmented unit accepts at %d, want 7", got)
	}
	// A different unit is unaffected.
	if got := p.EarliestAccept(isa.FloatAdd, 1); got != 1 {
		t.Errorf("independent unit accepts at %d, want 1", got)
	}
}

func TestSegmentedAcceptsEveryCycle(t *testing.T) {
	p := pool()
	p.SetSegmented(isa.FloatMul, true)
	p.Accept(isa.FloatMul, 0)
	if got := p.EarliestAccept(isa.FloatMul, 0); got != 1 {
		t.Errorf("segmented unit accepts at %d, want 1", got)
	}
	// But never two in the same cycle.
	if got := p.EarliestAccept(isa.FloatMul, 0); got == 0 {
		t.Error("segmented unit accepted two operations in one cycle")
	}
}

func TestSegmentAll(t *testing.T) {
	p := pool()
	p.SegmentAll()
	for u := 0; u < isa.NumUnits; u++ {
		if !p.Segmented(isa.Unit(u)) {
			t.Errorf("unit %s not segmented after SegmentAll", isa.Unit(u))
		}
	}
}

func TestMemoryLatencyFollowsConfig(t *testing.T) {
	slow := NewPool(isa.NewLatencies(11, 5))
	fast := NewPool(isa.NewLatencies(5, 2))
	if slow.Accept(isa.Memory, 0) != 11 {
		t.Error("slow memory completion wrong")
	}
	if fast.Accept(isa.Memory, 0) != 5 {
		t.Error("fast memory completion wrong")
	}
	if slow.Latency(isa.Branch) != 5 || fast.Latency(isa.Branch) != 2 {
		t.Error("branch latency wrong")
	}
}

func TestReset(t *testing.T) {
	p := pool()
	p.Accept(isa.Memory, 0)
	p.Reset()
	if got := p.EarliestAccept(isa.Memory, 0); got != 0 {
		t.Errorf("after Reset, accepts at %d, want 0", got)
	}
}

func TestBackToBackNonSegmented(t *testing.T) {
	// Three sequential uses of a serial unit stack up end to end.
	p := pool()
	var at int64
	for i := 0; i < 3; i++ {
		at = p.EarliestAccept(isa.ScalarAdd, at)
		p.Accept(isa.ScalarAdd, at)
	}
	if at != 6 { // 0, 3, 6
		t.Errorf("third acceptance at %d, want 6", at)
	}
}

func TestReplicatedNonSegmented(t *testing.T) {
	// Two copies of a serial unit: two back-to-back ops run in
	// parallel, the third waits for the first copy to free.
	p := pool()
	p.SetCount(isa.ScalarAdd, 2) // 3-cycle serial adds
	if p.Count(isa.ScalarAdd) != 2 {
		t.Fatalf("Count = %d, want 2", p.Count(isa.ScalarAdd))
	}
	if at := p.EarliestAccept(isa.ScalarAdd, 0); at != 0 {
		t.Fatalf("first op accepts at %d, want 0", at)
	}
	p.Accept(isa.ScalarAdd, 0)
	if at := p.EarliestAccept(isa.ScalarAdd, 0); at != 0 {
		t.Fatalf("second copy busy at 0; accepts at %d", at)
	}
	p.Accept(isa.ScalarAdd, 0)
	if at := p.EarliestAccept(isa.ScalarAdd, 0); at != 3 {
		t.Fatalf("third op accepts at %d, want 3 (both copies busy)", at)
	}
}

func TestReplicatedSegmented(t *testing.T) {
	// Segmented copies each accept one op per cycle: with two copies,
	// two ops start at cycle 0 and a third at cycle 1.
	p := pool()
	p.SetCount(isa.FloatMul, 2)
	p.SetSegmented(isa.FloatMul, true)
	p.Accept(isa.FloatMul, 0)
	p.Accept(isa.FloatMul, 0)
	if at := p.EarliestAccept(isa.FloatMul, 0); at != 1 {
		t.Errorf("third op accepts at %d, want 1", at)
	}
}

func TestReplicatedReset(t *testing.T) {
	p := pool()
	p.SetCount(isa.ScalarAdd, 3)
	for i := 0; i < 3; i++ {
		p.Accept(isa.ScalarAdd, 0)
	}
	p.Reset()
	if at := p.EarliestAccept(isa.ScalarAdd, 0); at != 0 {
		t.Errorf("after Reset, accepts at %d, want 0", at)
	}
}

func TestSetCountOneRestoresFastPath(t *testing.T) {
	p := pool()
	p.SetCount(isa.ScalarAdd, 4)
	p.SetCount(isa.ScalarAdd, 1)
	if p.Count(isa.ScalarAdd) != 1 {
		t.Fatalf("Count = %d, want 1", p.Count(isa.ScalarAdd))
	}
	p.Accept(isa.ScalarAdd, 0)
	if at := p.EarliestAccept(isa.ScalarAdd, 0); at != 3 {
		t.Errorf("single serial copy accepts at %d, want 3", at)
	}
}

func TestSetCountPanicsBelowOne(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SetCount(0) did not panic")
		}
	}()
	pool().SetCount(isa.ScalarAdd, 0)
}

// TestMoreCopiesAnswerAlike holds the rule behind Refused. A driver
// that issues like a machine — each operation asks EarliestAccept for
// its unit, sometimes only to look, and otherwise starts there —
// gives one random sequence to a pool and to a copy of it with more
// copies of one or two units, segmented and not. When the first pool
// never refused an added unit, the second answers every call the same
// and refuses exactly the same units. Where the first did refuse one,
// the answers must differ somewhere, or the check shows nothing.
func TestMoreCopiesAnswerAlike(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	type op struct {
		u      isa.Unit
		dt     int64
		accept bool
		reset  bool
	}
	used := []isa.Unit{isa.FloatMul, isa.FloatAdd, isa.Memory, isa.ScalarAdd}
	alike, differ := 0, 0
	for n := 0; n < 3000; n++ {
		lat := isa.NewLatencies(1+rng.Intn(12), 1+rng.Intn(6))
		few, more := NewPool(lat), NewPool(lat)
		for _, u := range used {
			seg := n%3 == 0 || (n%3 == 1 && rng.Intn(2) == 0)
			few.SetSegmented(u, seg)
			more.SetSegmented(u, seg)
			if c := 1 + rng.Intn(2); c > 1 {
				few.SetCount(u, c)
				more.SetCount(u, c)
			}
		}
		var added []isa.Unit
		for _, i := range rng.Perm(len(used))[:1+rng.Intn(2)] {
			u := used[i]
			more.SetCount(u, few.Count(u)+1+rng.Intn(2))
			added = append(added, u)
		}
		ops := make([]op, 10+rng.Intn(40))
		for i := range ops {
			ops[i] = op{
				u:      used[rng.Intn(len(used))],
				dt:     int64(rng.Intn(8)) - 1,
				accept: rng.Intn(4) != 0,
				reset:  rng.Intn(40) == 0,
			}
		}
		drive := func(p *Pool) []int64 {
			var t int64
			answers := make([]int64, 0, len(ops))
			for _, o := range ops {
				if o.reset {
					p.Reset()
					t = 0
				}
				t = max(t+o.dt, 0)
				e := p.EarliestAccept(o.u, t)
				answers = append(answers, e)
				if o.accept {
					p.Accept(o.u, e)
					t = e
				}
			}
			return answers
		}
		a, b := drive(few), drive(more)
		refused := false
		for _, u := range added {
			refused = refused || few.Refused().Has(u)
		}
		switch {
		case !refused:
			alike++
			if !slices.Equal(a, b) || few.Refused() != more.Refused() {
				t.Fatalf("case %d: more copies of %v answered %v, refusing %b; fewer answered %v, refusing %b",
					n, added, b, more.Refused(), a, few.Refused())
			}
		case !slices.Equal(a, b):
			differ++
		}
	}
	t.Logf("%d sequences never found an added unit busy, %d found one and answered differently", alike, differ)
	if alike < 500 || differ < 500 {
		t.Errorf("%d alike and %d differing sequences, want at least 500 of each", alike, differ)
	}
}
