package trace_test

import (
	"slices"
	"testing"

	"mfup/internal/loops"
	"mfup/internal/trace"
)

// TestNestDetectionPerKernel pins which Livermore traces are
// triangular nests: only LFK 6, whose outer iteration i runs an inner
// loop of i iterations (8 ops each, 10 around them). LFK 13's outer
// iterations all have one length and LFK 2's halve; the one-level
// loops split into equal windows. The structure is computed once per
// trace.
func TestNestDetectionPerKernel(t *testing.T) {
	for n := 1; n <= 14; n++ {
		k, err := loops.Get(n)
		if err != nil {
			t.Fatal(err)
		}
		prep := k.SharedTrace().Prepared()
		nt := prep.Nest()
		if (nt != nil) != (n == 6) {
			t.Errorf("LFK %d: Nest() = %+v, want a nest only for LFK 6", n, nt)
		}
		if prep.Nest() != nt {
			t.Errorf("LFK %d: Nest() not cached", n)
		}
	}
	for _, n := range []int{40, 64, 256} {
		k, err := loops.Scaled(6, n)
		if err != nil {
			t.Fatal(err)
		}
		tr := k.SharedTrace()
		nt := tr.Prepared().Nest()
		if nt == nil {
			t.Fatalf("LFK 6 at %d: no nest", n)
		}
		if nt.Outer != n-1 || nt.Step != 8 || nt.Start != 4 {
			t.Errorf("LFK 6 at %d: nest %+v, want %d outer iterations growing by 8 ops after 4", n, nt, n-1)
		}
		for j := 1; j <= nt.Outer; j++ {
			if want := 4 + 14*j + 4*j*j; nt.Len(j) != want {
				t.Fatalf("LFK 6 at %d: Len(%d) = %d, want %d", n, j, nt.Len(j), want)
			}
		}
		if nt.Len(nt.Outer) != len(tr.Ops) {
			t.Errorf("LFK 6 at %d: the last prefix holds %d of %d ops", n, nt.Len(nt.Outer), len(tr.Ops))
		}
	}
}

// TestNestPrefixIsAView checks that a prefix shares its source's ops
// and decode, and that its decode is the one a copied prefix gets from
// Prepare — address ids, address count, flags — apart from the taken
// flag of its last op, which a copied prefix clears.
func TestNestPrefixIsAView(t *testing.T) {
	k, err := loops.Scaled(6, 64)
	if err != nil {
		t.Fatal(err)
	}
	src := k.SharedTrace()
	nt := src.Prepared().Nest()
	for _, bad := range []int{0, -1, nt.Outer + 1} {
		if nt.Prefix(bad) != nil || nt.Len(bad) != 0 {
			t.Errorf("Prefix(%d) is not nil", bad)
		}
	}
	for kk := 1; kk <= nt.Outer; kk++ {
		view := nt.Prefix(kk)
		n := nt.Len(kk)
		if len(view.Ops) != n || view.Name != src.Name || &view.Ops[0] != &src.Ops[0] {
			t.Fatalf("Prefix(%d): %d ops named %q, want a %d-op view of %q", kk, len(view.Ops), view.Name, n, src.Name)
		}
		vp := view.Prepared()
		if &vp.Ops[0] != &src.Prepared().Ops[0] {
			t.Fatalf("Prefix(%d) decoded its ops again", kk)
		}
		cp := &trace.Trace{Name: src.Name, Ops: slices.Clone(src.Ops[:n])}
		cp.Ops[n-1].Taken = false
		want := trace.Prepare(cp)
		if vp.NumAddrs != want.NumAddrs || vp.FirstVector != want.FirstVector || vp.Err != nil {
			t.Errorf("Prefix(%d): NumAddrs %d FirstVector %d, a copy's %d and %d",
				kk, vp.NumAddrs, vp.FirstVector, want.NumAddrs, want.FirstVector)
		}
		for i := 0; i < n-1; i++ {
			if vp.Ops[i] != want.Ops[i] {
				t.Fatalf("Prefix(%d) op %d decodes as %+v, a copy as %+v", kk, i, vp.Ops[i], want.Ops[i])
			}
		}
		// Only the last prefix ends where the source does, on the
		// branch that falls through.
		last := vp.Ops[n-1]
		if taken := last.Flags.Has(trace.FlagBranch | trace.FlagTaken); last.AddrID != want.Ops[n-1].AddrID || taken != (kk < nt.Outer) {
			t.Errorf("Prefix(%d) last op %+v, taken %v", kk, last, taken)
		}
	}
}
