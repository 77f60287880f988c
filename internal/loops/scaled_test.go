package loops

import (
	"math"
	"runtime"
	"testing"
	"unsafe"

	"mfup/internal/isa"
)

// TestScaledKernelsValidate: every kernel still validates bit-exactly
// at non-default loop lengths, up to the maximum Bounds admits, so
// every layout fits the kernel memory.
func TestScaledKernelsValidate(t *testing.T) {
	alt := map[int][]int{
		1: {10, 200}, 2: {16, 128}, 3: {10, 200}, 4: {50, 200},
		5: {10, 200}, 6: {10, 80}, 7: {10, 200}, 8: {10, 100},
		9: {10, 200}, 10: {10, 200}, 11: {10, 200}, 12: {10, 200},
		13: {10, 200}, 14: {10, 200},
	}
	for number, ns := range alt {
		_, maxN, err := Bounds(number)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range append(ns, maxN) {
			k, err := Scaled(number, n)
			if err != nil {
				t.Errorf("Scaled(%d, %d): %v", number, n, err)
				continue
			}
			if k.N != n {
				t.Errorf("Scaled(%d, %d): N = %d", number, n, k.N)
			}
			if _, err := k.Trace(); err != nil {
				t.Errorf("Scaled(%d, %d): %v", number, n, err)
			}
		}
	}
}

// TestLargestTraceBuildAllocation: building the longest trace, LFK 6 at
// n = 256 (263,674 ops), allocates at most 2.5 times its trace bytes
// plus the kernel memory, measured as the bytes allocated during the
// build. Emission must not re-copy the trace as it grows.
func TestLargestTraceBuildAllocation(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	k, err := Scaled(6, 256)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := k.Trace()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	traceBytes := uint64(len(tr.Ops)) * uint64(unsafe.Sizeof(tr.Ops[0]))
	budget := traceBytes*5/2 + memoryWords*8
	n := after.TotalAlloc - before.TotalAlloc
	t.Logf("LFK 6 at n = 256: %d ops of %d bytes; build allocated %.1f MiB", len(tr.Ops), unsafe.Sizeof(tr.Ops[0]), float64(n)/(1<<20))
	if n > budget {
		t.Errorf("LFK 6 at n = 256 (%d ops, %d MiB): build allocated %d MiB, want at most %d",
			len(tr.Ops), traceBytes>>20, n>>20, budget>>20)
	}
}

func TestScaledRejectsBadLengths(t *testing.T) {
	cases := []struct {
		number, n int
	}{
		{1, 0},      // below minimum
		{1, 100000}, // above layout capacity
		{2, 48},     // not a power of two
		{4, 99},     // not a multiple of five
		{8, 1000},   // above kernel 8's layout capacity
		{14, 5000},  // above kernel 14's layout capacity
		{99, 100},   // no such kernel
	}
	for _, c := range cases {
		if _, err := Scaled(c.number, c.n); err == nil {
			t.Errorf("Scaled(%d, %d) did not fail", c.number, c.n)
		}
	}
}

// TestVirtualWindowsRefusesNegative: a negative remainder is an
// error, not a negative window count for the extrapolation engine.
func TestVirtualWindowsRefusesNegative(t *testing.T) {
	for _, extra := range []int64{-1, -5} {
		if vw, err := VirtualWindows(registry[1], extra); err == nil {
			t.Errorf("VirtualWindows(LFK 1, %d) = %d, want an error", extra, vw)
		}
	}
}

func TestScaledDoesNotDisturbRegistry(t *testing.T) {
	before := registry[1].SharedTrace().Len()
	if _, err := Scaled(1, 500); err != nil {
		t.Fatal(err)
	}
	after := registry[1].SharedTrace().Len()
	if before != after {
		t.Error("Scaled mutated the registered default kernel")
	}
}

// TestScaledTraceGrowsLinearly: dynamic instruction count scales with
// loop length (the body is unchanged).
func TestScaledTraceGrowsLinearly(t *testing.T) {
	small, err := Scaled(1, 50)
	if err != nil {
		t.Fatal(err)
	}
	big, err := Scaled(1, 200)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(big.MustTrace().Len()) / float64(small.MustTrace().Len())
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("4x length gave %.2fx instructions", ratio)
	}
}

// TestMixStableInN: the instruction mix is a property of the loop
// body, so doubling the loop length barely moves it. (The companion
// issue-rate stability check lives in internal/core, which can run
// the machines.)
func TestMixStableInN(t *testing.T) {
	double := map[int]int{
		1: 200, 2: 128, 3: 200, 4: 200, 5: 200, 6: 80, 7: 200,
		8: 100, 9: 200, 10: 200, 11: 200, 12: 200, 13: 200, 14: 200,
	}
	for _, k := range All() {
		scaled, err := Scaled(k.Number, double[k.Number])
		if err != nil {
			t.Fatalf("Scaled(%d): %v", k.Number, err)
		}
		baseMix := k.SharedTrace().ComputeMix()
		scaledMix := scaled.MustTrace().ComputeMix()
		// Instruction mix fractions barely move...
		for u := 0; u < isa.NumUnits; u++ {
			d := math.Abs(baseMix.Fraction(isa.Unit(u)) - scaledMix.Fraction(isa.Unit(u)))
			if d > 0.05 {
				t.Errorf("%s: unit %s mix moved by %.3f with loop length", k, isa.Unit(u), d)
			}
		}
	}
}

func TestVectorKernelRegistry(t *testing.T) {
	ks := VectorKernels()
	if len(ks) != 9 {
		t.Fatalf("VectorKernels returned %d kernels, want 9", len(ks))
	}
	want := []int{1, 2, 3, 4, 7, 8, 9, 10, 12}
	for i, k := range ks {
		if k.Number != want[i] {
			t.Errorf("vector kernel %d has number %d, want %d", i, k.Number, want[i])
		}
		if k.Class != Vectorizable {
			t.Errorf("vector kernel %d not classified Vectorizable", k.Number)
		}
	}
	if _, err := VectorKernel(5); err == nil {
		t.Error("VectorKernel(5) did not fail (LFK 5 is a recurrence)")
	}
}

func TestVectorKernelsValidate(t *testing.T) {
	for _, k := range VectorKernels() {
		tr, err := k.Trace()
		if err != nil {
			t.Errorf("%s: %v", k, err)
			continue
		}
		// Vector traces are far shorter than their scalar versions.
		sk, _ := Get(k.Number)
		if tr.Len() >= sk.SharedTrace().Len() {
			t.Errorf("%s: vector trace (%d ops) not shorter than scalar (%d ops)",
				k, tr.Len(), sk.SharedTrace().Len())
		}
	}
}

func TestVectorKernelVLUsage(t *testing.T) {
	// Every vector instruction carries a plausible element count, and
	// the strip-mined kernels (n = 100 over 64-element registers) show
	// both the full and the remainder strip.
	stripMined := map[int]bool{1: true, 3: true, 7: true, 9: true, 10: true, 12: true}
	for _, k := range VectorKernels() {
		tr := k.MustTrace()
		seen64, seen36 := false, false
		for i := range tr.Ops {
			op := &tr.Ops[i]
			if !op.Code.IsVector() || op.VLen == 0 {
				continue
			}
			if op.VLen < 0 || op.VLen > 64 {
				t.Fatalf("%s: op %d has VLen %d", k, i, op.VLen)
			}
			if op.VLen == 64 {
				seen64 = true
			}
			if op.VLen == 36 {
				seen36 = true
			}
		}
		if stripMined[k.Number] && (!seen64 || !seen36) {
			t.Errorf("%s: strip lengths 64/36 not both observed (64:%v 36:%v)", k, seen64, seen36)
		}
	}
}
