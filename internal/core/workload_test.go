package core

import (
	"slices"
	"sync"
	"testing"

	"mfup/internal/loops"
)

// TestWorkloadMemo pins the memo's contract: a hit returns the
// resolution's own kernels; another length or another selection
// replaces the one entry; an append to a returned Notes or Kernels
// copies instead of writing into the memo; and concurrent callers are
// safe (run it under -race). LFK 6 cannot reach 300 iterations, so it
// is clamped with a note, and LFK 13 and 14 cannot reach 1200.
func TestWorkloadMemo(t *testing.T) {
	k6, err := loops.Get(6)
	if err != nil {
		t.Fatal(err)
	}
	k13, err := loops.Get(13)
	if err != nil {
		t.Fatal(err)
	}
	sameKernels := func(a, b Workload) bool { return slices.Equal(a.Kernels, b.Kernels) }

	var m WorkloadMemo
	first := m.Scale([]*loops.Kernel{k6, k13}, 300)
	if len(first.Kernels) != 2 || first.Kernels[0].Number != 6 || first.Kernels[1].Number != 13 {
		t.Fatalf("resolved %v, want LFK 6 and 13 in selection order", first.Kernels)
	}
	if len(first.Notes) != 1 {
		t.Fatalf("Notes = %q, want LFK 6's clamp", first.Notes)
	}
	if fresh := ScaleKernels([]*loops.Kernel{k6, k13}, 300); sameKernels(fresh, first) {
		t.Fatal("two resolutions share kernels: the memo checks below cannot tell a hit from a rebuild")
	}

	// A hit: another slice holding the same kernels, at the same length.
	hit := m.Scale([]*loops.Kernel{k6, k13}, 300)
	if !sameKernels(hit, first) {
		t.Error("a second Scale of the same selection and length rebuilt its kernels")
	}

	// Returned slices are clipped, so callers' appends copy: three clamp
	// notes have room past their length unless clipped, and so does a
	// copy of the five scalar kernels at the paper lengths.
	k14, err := loops.Get(14)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		ks             []*loops.Kernel
		n              int
		kernels, notes int
	}{
		{[]*loops.Kernel{k6, k13, k14}, 1200, 3, 3},
		{loops.ByClass(loops.Scalar), 0, 5, 0},
	} {
		w := m.Scale(c.ks, c.n)
		if len(w.Kernels) != c.kernels || len(w.Notes) != c.notes {
			t.Fatalf("at %d: %d kernels and notes %q, want %d and %d", c.n, len(w.Kernels), w.Notes, c.kernels, c.notes)
		}
		if cap(w.Kernels) != len(w.Kernels) || cap(w.Notes) != len(w.Notes) {
			t.Errorf("at %d: Kernels cap %d len %d, Notes cap %d len %d: want both clipped",
				c.n, cap(w.Kernels), len(w.Kernels), cap(w.Notes), len(w.Notes))
		}
		x := append(m.Scale(c.ks, c.n).Notes, "x")
		y := append(m.Scale(c.ks, c.n).Notes, "y")
		kx := append(m.Scale(c.ks, c.n).Kernels, k6)
		ky := append(m.Scale(c.ks, c.n).Kernels, k13)
		if x[len(x)-1] != "x" || y[len(y)-1] != "y" || kx[len(kx)-1] != k6 || ky[len(ky)-1] != k13 {
			t.Errorf("at %d: appends to two hits share storage", c.n)
		}
		if again := m.Scale(c.ks, c.n); !sameKernels(again, w) || !slices.Equal(again.Notes, w.Notes) {
			t.Errorf("at %d: the entry changed after callers appended to it", c.n)
		}
	}

	// The memo owns its key: a caller reusing its slice for another
	// selection is a miss, not a hit on what the slice used to hold.
	ks := []*loops.Kernel{k6, k13}
	m.Scale(ks, 300)
	ks[0], ks[1] = k13, k6
	if swapped := m.Scale(ks, 300); swapped.Kernels[0].Number != 13 || sameKernels(swapped, first) {
		t.Errorf("a reordered selection resolved to %v", swapped.Kernels)
	}

	// One entry: another length replaces it, so returning to the first
	// key resolves again.
	base := m.Scale([]*loops.Kernel{k6, k13}, 300)
	if other := m.Scale([]*loops.Kernel{k6, k13}, 320); sameKernels(other, base) {
		t.Error("another length hit the entry")
	}
	if back := m.Scale([]*loops.Kernel{k6, k13}, 300); sameKernels(back, base) {
		t.Error("a replaced entry was still served")
	}

	// Concurrent callers of one key share one resolution; callers of
	// alternating keys always get their own key's kernels.
	var wg sync.WaitGroup
	got := make([]Workload, 8)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = m.Scale([]*loops.Kernel{k6, k13}, 300+20*(g%2))
		}()
	}
	wg.Wait()
	for g, w := range got {
		if len(w.Kernels) != 2 || w.Kernels[0].Number != 6 || w.Kernels[1].N != 300+20*(g%2) {
			t.Errorf("caller %d at length %d got %v", g, 300+20*(g%2), w.Kernels)
		}
	}
	var one WorkloadMemo
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = one.Scale([]*loops.Kernel{k6, k13}, 300)
		}()
	}
	wg.Wait()
	for g := range got {
		if !sameKernels(got[g], got[0]) {
			t.Errorf("concurrent callers %d and 0 of one key got different kernels", g)
		}
	}
}
