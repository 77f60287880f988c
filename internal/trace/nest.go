package trace

import "sync"

// Nest describes a triangular loop nest: a trace with no one-level
// Period whose outer iterations grow by a fixed number of ops each, as
// when the inner trip count is the outer index (LFK 6).
//
// The instances of the trace's final branch split the stream into
// outer iterations. That branch is the trace's last op: a conditional
// backward branch, taken back to one head PC by every instance but the
// last, which falls through and ends the trace. The trace is a nest
// when the iteration lengths grow by one fixed positive Step. LFK 13's
// outer iterations all have one length and LFK 2's halve, so neither
// is a nest. The detection is structural only; the extrapolation
// engine confirms per machine that the simulated totals follow the
// growth (fixed second differences) before it trusts them.
type Nest struct {
	// Start is the index of the first outer iteration's first op: the
	// ops before it are the prologue.
	Start int

	// Outer is the number of outer iterations in the trace.
	Outer int

	// Step is how many ops each outer iteration adds over the one
	// before.
	Step int

	// ends[k-1] is the length of the prefix holding the first k outer
	// iterations, and addrs[k-1] the number of distinct addresses in
	// it.
	ends, addrs []int32

	src *Prepared

	// prefixes caches the views Prefix builds, by outer count, so the
	// machines of a grid share them.
	mu       sync.Mutex
	prefixes map[int]*Trace
}

// Nest returns the trace's triangular loop-nest structure, or nil when
// it has none. Like Period it is computed once per Prepared and cached.
func (p *Prepared) Nest() *Nest {
	p.nestOnce.Do(func() { p.nest = findNest(p) })
	return p.nest
}

// findNest runs the detection over a decoded trace.
func findNest(p *Prepared) *Nest {
	if p.Err != nil || len(p.Ops) < 2 {
		return nil
	}
	ops := p.Trace.Ops
	last := len(ops) - 1
	if f := p.Ops[last].Flags; !f.Has(FlagBranch|FlagConditional) || f.Has(FlagTaken) {
		return nil
	}
	pc := ops[last].PC
	head := -1 // the PC every outer iteration starts at
	start := -1
	var ends, addrs []int32
	maxID := int32(-1)
	for i := range ops {
		if id := p.Ops[i].AddrID; id > maxID {
			maxID = id
		}
		if ops[i].PC != pc {
			continue
		}
		if i < last {
			next := ops[i+1].PC
			if !p.Ops[i].Flags.Has(FlagTaken) || next > pc || (head >= 0 && next != head) {
				return nil
			}
			head = next
		}
		ends = append(ends, int32(i+1))
		// Address ids are dense in first-occurrence order, so the
		// prefix ending here holds exactly ids 0..maxID.
		addrs = append(addrs, maxID+1)
	}
	if len(ends) < 3 {
		return nil
	}
	for i := range ops {
		if ops[i].PC == head {
			start = i
			break
		}
	}
	if start < 0 || int32(start) >= ends[0] {
		return nil
	}
	step := int(ends[1]-ends[0]) - (int(ends[0]) - start)
	if step <= 0 {
		return nil
	}
	for k := 2; k < len(ends); k++ {
		if int(ends[k]-ends[k-1])-int(ends[k-1]-ends[k-2]) != step {
			return nil
		}
	}
	return &Nest{Start: start, Outer: len(ends), Step: step, ends: ends, addrs: addrs, src: p}
}

// Len returns the op count of Prefix(k), or 0 when k is out of range.
func (n *Nest) Len(k int) int {
	if k < 1 || k > n.Outer {
		return 0
	}
	return int(n.ends[k-1])
}

// Prefix returns the trace of the prologue and the first k outer
// iterations (1 <= k <= Outer), or nil for k out of range. It is a view,
// not a copy: its ops, decode and address ids are the source's, and its
// NumAddrs counts only the addresses it touches, so a machine sizes its
// per-address state as for a built trace of that length.
//
// Its last op is the k-th closing branch, which the source took where
// the last real one falls through. No timing model can tell: only
// Prepared.Window reads taken-ness, and a taken branch that is a
// trace's last op ends the last fetch buffer exactly where the end of
// the trace would. Prefixes are cached and shared.
func (n *Nest) Prefix(k int) *Trace {
	end := n.Len(k)
	if end == 0 {
		return nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if t, ok := n.prefixes[k]; ok {
		return t
	}
	src := n.src
	t := &Trace{Name: src.Trace.Name, Ops: src.Trace.Ops[:end:end]}
	first := src.FirstVector
	if first >= end {
		first = -1
	}
	p := &Prepared{
		Trace:       t,
		Ops:         src.Ops[:end:end],
		FirstVector: first,
		NumAddrs:    int(n.addrs[k-1]),
		nextTaken:   src.nextTaken[: end+1 : end+1],
	}
	t.prepOnce.Do(func() { t.prep = p })
	if n.prefixes == nil {
		n.prefixes = map[int]*Trace{}
	}
	n.prefixes[k] = t
	return t
}
