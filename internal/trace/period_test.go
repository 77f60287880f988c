package trace_test

import (
	"testing"

	"mfup/internal/asm"
	"mfup/internal/emu"
	"mfup/internal/loops"
	"mfup/internal/trace"
)

// kernelPeriod returns the detected Period of Livermore kernel n's
// shared trace (nil when none is detectable).
func kernelPeriod(t *testing.T, n int) *trace.Period {
	t.Helper()
	k, err := loops.Get(n)
	if err != nil {
		t.Fatalf("kernel %d: %v", n, err)
	}
	prep := k.SharedTrace().Prepared()
	if prep.Err != nil {
		t.Fatalf("kernel %d: prepare: %v", n, prep.Err)
	}
	return prep.Period()
}

// TestPeriodDetectionPerKernel pins which Livermore traces expose a
// steady-state period. The loops with data-dependent control flow
// (LFK 13), data-dependent addressing (LFK 8), a triangular nest
// (LFK 6, which has a Nest instead), or non-counted structure (LFK 2's
// recursive halving) must yield nil — they are exactly the traces the
// extrapolation engine cannot close by first differences.
func TestPeriodDetectionPerKernel(t *testing.T) {
	periodic := map[int]bool{
		1: true, 2: false, 3: true, 4: true, 5: true,
		6: false, 7: true, 8: false, 9: true, 10: true,
		11: true, 12: true, 13: false, 14: true,
	}
	for n := 1; n <= 14; n++ {
		pd := kernelPeriod(t, n)
		if got := pd != nil; got != periodic[n] {
			t.Errorf("LFK %d: period detected = %v, want %v", n, got, periodic[n])
			continue
		}
		if pd == nil {
			continue
		}
		if pd.Span <= 0 || pd.Windows < 2 || pd.Start < 0 {
			t.Errorf("LFK %d: implausible period %+v", n, pd)
		}
		if pd.Iterations() != pd.Windows {
			t.Errorf("LFK %d: Iterations() = %d, want Windows = %d", n, pd.Iterations(), pd.Windows)
		}
	}
}

// TestPeriodSliceStructure checks the reduced-trace constructor: a
// k-window slice holds the prologue, k-1 body windows verbatim, and
// the shifted final window plus epilogue; the full-width slice is the
// source trace op for op; out-of-range requests return nil.
func TestPeriodSliceStructure(t *testing.T) {
	k, err := loops.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	src := k.SharedTrace()
	pd := src.Prepared().Period()
	if pd == nil {
		t.Fatal("LFK 1: no period")
	}
	epilogue := len(src.Ops) - pd.Start - pd.Windows*pd.Span
	for _, kw := range []int{2, 3, 17, pd.Windows / 2, pd.Windows} {
		tr := pd.Slice(kw)
		if tr == nil {
			t.Fatalf("Slice(%d) = nil", kw)
		}
		want := pd.Start + kw*pd.Span + epilogue
		if len(tr.Ops) != want {
			t.Errorf("Slice(%d): %d ops, want %d", kw, len(tr.Ops), want)
		}
		if prep := tr.Prepared(); prep.Err != nil {
			t.Errorf("Slice(%d): reduced trace invalid: %v", kw, prep.Err)
		}
		for i, o := range tr.Ops {
			if o.Seq != int64(i) {
				t.Fatalf("Slice(%d): op %d has Seq %d", kw, i, o.Seq)
			}
		}
	}
	full := pd.Slice(pd.Windows)
	if len(full.Ops) != len(src.Ops) {
		t.Fatalf("full-width slice: %d ops, want %d", len(full.Ops), len(src.Ops))
	}
	for i := range full.Ops {
		if full.Ops[i] != src.Ops[i] {
			t.Fatalf("full-width slice differs from source at op %d: %+v vs %+v",
				i, full.Ops[i], src.Ops[i])
		}
	}
	for _, bad := range []int{-1, 0, 1, pd.Windows + 1} {
		if tr := pd.Slice(bad); tr != nil {
			t.Errorf("Slice(%d) = %d ops, want nil", bad, len(tr.Ops))
		}
	}
}

// TestPeriodSliceCached checks that repeated requests for the same
// width share one constructed trace: a table grid's many machines must
// not rebuild (or race on) the reduction.
func TestPeriodSliceCached(t *testing.T) {
	pd := kernelPeriod(t, 3)
	if pd == nil {
		t.Fatal("LFK 3: no period")
	}
	if a, b := pd.Slice(10), pd.Slice(10); a != b {
		t.Errorf("Slice(10) built two traces: %p vs %p", a, b)
	}
}

// TestPeriodTailIdentity pins the tail address-identity guard: the
// regular strided kernels survive reduction, while LFK 14's gather
// addressing must be rejected — its tail reads depend on history a
// reduced trace no longer carries.
func TestPeriodTailIdentity(t *testing.T) {
	if pd := kernelPeriod(t, 1); pd == nil || !pd.TailIdentityOK(20) {
		t.Errorf("LFK 1: TailIdentityOK(20) = false, want true")
	}
	pd := kernelPeriod(t, 14)
	if pd == nil {
		t.Fatal("LFK 14: no period")
	}
	ok := false
	for k := 2; k < pd.Windows; k++ {
		if !pd.TailIdentityOK(k) {
			ok = true
			break
		}
	}
	if !ok {
		t.Errorf("LFK 14: every reduction preserves tail identity, expected at least one failure")
	}
	// Verdicts are cached per width: the full-width reduction is the
	// source itself and passes, before and after a failing width.
	if !pd.TailIdentityOK(pd.Windows) || pd.TailIdentityOK(2) || !pd.TailIdentityOK(pd.Windows) {
		t.Errorf("LFK 14: TailIdentityOK(%d), (2), (%d) = %v, %v, %v; want true, false, true",
			pd.Windows, pd.Windows, pd.TailIdentityOK(pd.Windows), pd.TailIdentityOK(2), pd.TailIdentityOK(pd.Windows))
	}
}

// TestPeriodDeterministicAmongEqualLoops: two sequential counted loops
// with equal trip counts both qualify as the period, and detection
// breaks the tie by the lower branch PC on every fresh decode instead
// of by map order.
func TestPeriodDeterministicAmongEqualLoops(t *testing.T) {
	p, err := asm.Assemble("twoloops", `
    A1 = 100
    A2 = 200
    A7 = 1
    A0 = 20
first:
    A0 = A0 - A7
    S1 = [A1]
    A1 = A1 + A7
    JAN first
    A0 = 20
second:
    A0 = A0 - A7
    S2 = [A2]
    A2 = A2 + A7
    JAN second
`)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := emu.New(256).Run(p)
	if err != nil {
		t.Fatal(err)
	}
	const firstPC = 7 // JAN first
	for i := 0; i < 50; i++ {
		pd := trace.Prepare(tr).Period()
		if pd == nil {
			t.Fatal("no period detected")
		}
		if pd.BranchPC != firstPC || pd.Start != 4 || pd.Span != 4 || pd.Windows != 20 {
			t.Fatalf("decode %d: period at pc %d, start %d, span %d, %d windows; want pc %d, start 4, span 4, 20 windows",
				i, pd.BranchPC, pd.Start, pd.Span, pd.Windows, firstPC)
		}
	}
}

// TestPeriodBankSafe checks the bank-safety predicate's degenerate
// and self-consistency cases: one bank is always safe, and a stride
// set safe for 2^k banks is safe for every divisor.
func TestPeriodBankSafe(t *testing.T) {
	for _, n := range []int{1, 3, 5, 9, 12} {
		pd := kernelPeriod(t, n)
		if pd == nil {
			t.Fatalf("LFK %d: no period", n)
		}
		if !pd.BankSafe(1) {
			t.Errorf("LFK %d: BankSafe(1) = false", n)
		}
		if pd.BankSafe(16) && !pd.BankSafe(8) {
			t.Errorf("LFK %d: safe for 16 banks but not 8", n)
		}
		if pd.BankSafe(8) && !pd.BankSafe(2) {
			t.Errorf("LFK %d: safe for 8 banks but not 2", n)
		}
	}
}

// TestPeriodDiverge pins the divergence point a forked ladder pauses
// at: Slice(k) equals the source trace, address ids included, on every
// op before Diverge(k), and at Diverge(k) holds the same instruction
// falling through where the source takes it.
func TestPeriodDiverge(t *testing.T) {
	checked := 0
	for n := 1; n <= 14; n++ {
		pd := kernelPeriod(t, n)
		if pd == nil {
			continue
		}
		k, _ := loops.Get(n)
		src := k.SharedTrace()
		for w := 2; w < pd.Windows; w++ {
			s := pd.Slice(w)
			d := pd.Diverge(w)
			for i := 0; i < d; i++ {
				if s.Ops[i] != src.Ops[i] || s.Prepared().Ops[i].AddrID != src.Prepared().Ops[i].AddrID {
					t.Fatalf("LFK %d, %d windows: op %d %+v differs from the source's %+v before Diverge %d", n, w, i, s.Ops[i], src.Ops[i], d)
				}
			}
			got, want := s.Ops[d], src.Ops[d]
			if !got.IsBranch() || got.Taken || !want.Taken {
				t.Fatalf("LFK %d, %d windows: op %d at Diverge is %+v, source %+v; want the closing branch, taken only in the source", n, w, d, got, want)
			}
			if got.Taken = true; got != want {
				t.Fatalf("LFK %d, %d windows: op %d at Diverge is %+v, source %+v", n, w, d, got, want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no slice checked")
	}
}
