package trace

import (
	"slices"
	"sync"
)

// Period describes the steady-state loop structure of a trace: a
// prologue, a run of congruent loop-body windows, and an epilogue.
//
// The detector looks for the dynamic footprint of a counted loop: a
// taken backward branch whose instances partition the stream into
// equally sized windows that execute the same static instructions in
// the same order, with every memory operand advancing by a constant
// per-position address stride from one iteration to the next. That is
// exactly the structure the Livermore kernels present to the
// simulators, and it is what makes per-iteration machine behavior
// eventually periodic: once the pipeline reaches steady state, each
// window costs the same number of cycles as the last.
//
// A trace with data-dependent control flow (different window contents
// per iteration, as in LFK 13), data-dependent addressing, a
// triangular iteration space (LFK 2/6), or too few iterations has no
// Period; Prepared.Period returns nil. A triangular nest whose outer
// iterations grow by a fixed op count (LFK 6) has a Nest instead;
// anything else falls back to full simulation.
type Period struct {
	// Start is the index of the first loop-body window.
	Start int

	// Span is the number of ops in one iteration window.
	Span int

	// Windows is the number of body windows in the trace, including
	// the final fall-through iteration.
	Windows int

	// BranchPC is the static PC of the closing backward branch.
	BranchPC int

	// deltas[pos] is the constant per-iteration address stride of the
	// memory op at window position pos (0 for non-memory positions).
	deltas []int64

	// epiShift[i] is the address stride attributed to epilogue op i:
	// the stride of the final-window position whose address it reads,
	// or 0 when it touches prologue data or fresh addresses.
	epiShift []int64

	src *Prepared

	// slices caches constructed reduced traces by iteration count, so
	// the many machines of a table grid share one construction, and
	// tailOK caches TailIdentityOK's verdict by iteration count, so
	// they share one check.
	mu     sync.Mutex
	slices map[int]*Trace
	tailOK map[int]bool
}

// Period returns the trace's steady-state loop structure, or nil when
// none is detectable. The analysis runs once per Prepared and is
// cached; like the decode itself it is safe to request from any
// number of concurrently running machines.
func (p *Prepared) Period() *Period {
	p.periodOnce.Do(func() { p.period = findPeriod(p) })
	return p.period
}

// maxPeriodCandidates bounds how many distinct backward-branch PCs
// the detector tries, most-frequent first: the principal loop branch
// dominates the anchor counts, and nested or irregular loops fail the
// uniform-spacing or congruence checks quickly.
const maxPeriodCandidates = 4

// findPeriod runs the detection over a decoded trace.
func findPeriod(p *Prepared) *Period {
	if p.Err != nil || len(p.Ops) == 0 {
		return nil
	}
	ops := p.Trace.Ops
	// Anchors: indices that begin a new iteration, i.e. the successor
	// of every taken branch whose target does not move forward.
	anchors := map[int][]int{}
	for i := 0; i+1 < len(ops); i++ {
		if p.Ops[i].Flags.Has(FlagBranch|FlagTaken) && ops[i+1].PC <= ops[i].PC {
			pc := ops[i].PC
			anchors[pc] = append(anchors[pc], i+1)
		}
	}
	// Try candidate branch PCs by descending anchor count, ties by
	// ascending PC, so the choice never depends on map order.
	type cand struct {
		pc int
		as []int
	}
	cands := make([]cand, 0, len(anchors))
	for pc, as := range anchors {
		cands = append(cands, cand{pc, as})
	}
	slices.SortFunc(cands, func(a, b cand) int {
		if d := len(b.as) - len(a.as); d != 0 {
			return d
		}
		return a.pc - b.pc
	})
	if len(cands) > maxPeriodCandidates {
		cands = cands[:maxPeriodCandidates]
	}
	for _, c := range cands {
		if pd := tryCandidate(p, c.pc, c.as); pd != nil {
			return pd
		}
	}
	return nil
}

// tryCandidate checks whether the anchors of one backward branch PC
// induce a valid periodic structure and, if so, builds the Period.
func tryCandidate(p *Prepared, pc int, anchors []int) *Period {
	ops := p.Trace.Ops
	if len(anchors) < 2 {
		return nil
	}
	span := anchors[1] - anchors[0]
	if span <= 0 {
		return nil
	}
	for i := 1; i < len(anchors); i++ {
		if anchors[i]-anchors[i-1] != span {
			return nil // non-uniform spacing: nested or irregular loop
		}
	}
	start := anchors[0] - span
	if start < 0 {
		return nil
	}
	// The final iteration falls through its branch instead of taking
	// it, so it contributes no anchor; the body must still be complete.
	windows := len(anchors) + 1
	tail := start + (windows-1)*span
	if tail+span > len(ops) {
		return nil
	}
	// Congruence: every window executes the template's instructions,
	// and each memory position advances by a constant address stride.
	deltas := make([]int64, span)
	for pos := 0; pos < span; pos++ {
		base := &ops[start+pos]
		mem := base.Code.IsMemory()
		if mem && windows > 1 {
			deltas[pos] = ops[start+span+pos].Addr - base.Addr
		}
		for w := 1; w < windows; w++ {
			o := &ops[start+w*span+pos]
			if o.PC != base.PC || o.Code != base.Code || o.Unit != base.Unit ||
				o.Parcels != base.Parcels || o.Dst != base.Dst ||
				o.Src1 != base.Src1 || o.Src2 != base.Src2 ||
				o.Stride != base.Stride || o.VLen != base.VLen {
				return nil
			}
			if o.Taken != base.Taken {
				// Only the closing branch of the final window may
				// differ: it falls through where the others loop back.
				if w != windows-1 || pos != span-1 {
					return nil
				}
			}
			if mem && o.Addr != base.Addr+int64(w)*deltas[pos] {
				return nil
			}
		}
	}
	// Epilogue strides: an epilogue op that reads an address the final
	// window touched inherits that position's stride (it follows the
	// loop's data); any other address is treated as loop-invariant. A
	// final-window address reached with two different strides is
	// ambiguous — reject the structure rather than guess.
	finalAddr := map[int64]int64{}
	for pos := 0; pos < span; pos++ {
		if !ops[start+pos].Code.IsMemory() {
			continue
		}
		a := ops[tail+pos].Addr
		if d, seen := finalAddr[a]; seen && d != deltas[pos] {
			return nil
		}
		finalAddr[a] = deltas[pos]
	}
	epi := ops[tail+span:]
	epiShift := make([]int64, len(epi))
	for i := range epi {
		if epi[i].Code.IsMemory() {
			epiShift[i] = finalAddr[epi[i].Addr]
		}
	}
	return &Period{
		Start:    start,
		Span:     span,
		Windows:  windows,
		BranchPC: pc,
		deltas:   deltas,
		epiShift: epiShift,
		src:      p,
	}
}

// Iterations returns the number of body windows in the source trace.
func (pd *Period) Iterations() int { return pd.Windows }

// tailStart returns the index of the final body window.
func (pd *Period) tailStart() int { return pd.Start + (pd.Windows-1)*pd.Span }

// BankSafe reports whether reduced traces preserve bank assignment on
// a banks-way interleaved memory: removing iterations shifts the tail
// addresses by whole multiples of each position's stride, so the bank
// (address mod banks) survives exactly when every stride is a
// multiple of the bank count.
func (pd *Period) BankSafe(banks int) bool {
	if banks <= 1 {
		return true
	}
	b := int64(banks)
	for _, d := range pd.deltas {
		if d%b != 0 {
			return false
		}
	}
	for _, d := range pd.epiShift {
		if d%b != 0 {
			return false
		}
	}
	return true
}

// Slice returns a reduced trace with k body windows (2 <= k <=
// Windows): the prologue and first k-1 windows verbatim, then the
// source's final window and epilogue with every address pulled back
// by (Windows-k) strides so the reduced tail continues the address
// progression seamlessly. Slices are cached and shared; like any
// trace they are immutable once built.
func (pd *Period) Slice(k int) *Trace {
	if k < 2 || k > pd.Windows {
		return nil
	}
	pd.mu.Lock()
	defer pd.mu.Unlock()
	if t, ok := pd.slices[k]; ok {
		return t
	}
	src := pd.src.Trace.Ops
	tail := pd.tailStart()
	head := pd.Start + (k-1)*pd.Span
	shift := int64(pd.Windows - k)
	out := make([]Op, 0, head+len(src)-tail)
	out = append(out, src[:head]...)
	for i := tail; i < len(src); i++ {
		o := src[i]
		if pos := i - tail; pos < pd.Span {
			o.Addr -= shift * pd.deltas[pos]
		} else {
			o.Addr -= shift * pd.epiShift[pos-pd.Span]
		}
		out = append(out, o)
	}
	for i := range out {
		out[i].Seq = int64(i)
	}
	t := &Trace{Name: pd.src.Trace.Name, Ops: out}
	if pd.slices == nil {
		pd.slices = map[int]*Trace{}
	}
	pd.slices[k] = t
	return t
}

// Diverge returns the index of the first op at which Slice(k) may
// differ from a longer slice or from the source trace: the closing
// branch of its final window, the same instruction, which the slice
// falls through and the longer traces take. The ops before it are
// equal, and so are their address ids (Prepare numbers addresses
// densely in first-occurrence order), so a run of the source can stand
// for a run of the slice up to there.
func (pd *Period) Diverge(k int) int { return pd.Start + k*pd.Span - 1 }

// TailIdentityOK verifies that the reduced trace with k windows
// reproduces the source's tail address-identity structure: for every
// memory op of the final window and epilogue, the backward distance
// to the previous op with the same address — the relation that drives
// store-to-load ordering and memory renaming — matches the source's,
// with distances beyond the reduced trace's history clamped (a
// dependence that far back is timing-inert in every machine model).
// It guards the epilogue stride attribution, which is heuristic where
// the body strides are proven. The verdict is computed once per k and
// cached.
func (pd *Period) TailIdentityOK(k int) bool {
	t := pd.Slice(k)
	if t == nil {
		return false
	}
	pd.mu.Lock()
	defer pd.mu.Unlock()
	if ok, done := pd.tailOK[k]; done {
		return ok
	}
	sliceTail := pd.Start + (k-1)*pd.Span
	cap64 := int64(sliceTail) // history available before the reduced tail
	ok := slices.Equal(tailIdentity(pd.src.Trace.Ops, pd.tailStart(), cap64),
		tailIdentity(t.Ops, sliceTail, cap64))
	if pd.tailOK == nil {
		pd.tailOK = map[int]bool{}
	}
	pd.tailOK[k] = ok
	return ok
}

// tailIdentity computes the capped previous-occurrence distance of
// each memory op from index from on: how many ops back the same
// address was last touched, clamped to cap (also the value for "never").
func tailIdentity(ops []Op, from int, cap64 int64) []int64 {
	last := make(map[int64]int, 64)
	var sig []int64
	for i := range ops {
		if !ops[i].Code.IsMemory() {
			continue
		}
		if i >= from {
			d := cap64
			if j, ok := last[ops[i].Addr]; ok {
				if dd := int64(i - j); dd < d {
					d = dd
				}
			}
			sig = append(sig, d)
		}
		last[ops[i].Addr] = i
	}
	return sig
}
