// Package fu models the occupancy of the hardware functional units.
//
// The base machine has one unit of each class (internal/isa.Unit).
// A unit is either segmented (fully pipelined: it accepts a new
// operation every clock cycle, as in the CRAY-1) or non-segmented (it
// is busy for the full latency of each operation, as in the CDC
// 6600). The memory system is a "functional unit" here too: a serial
// memory is a non-segmented unit, an interleaved memory a segmented
// one. That is exactly the axis along which the paper's four basic
// machines differ.
//
// A pool also remembers every unit class that was ever busy when a
// machine asked for it: EarliestAccept adds u to Refused whenever it
// answers a cycle later than the one asked. Reset keeps that set, so
// it covers every run a machine makes on its pool. A unit that a run
// never found busy never held that run back: a pool with more copies
// of it gives every call of the run the same answer (see Refused).
package fu

import (
	"fmt"

	"mfup/internal/isa"
)

// Pool tracks when each functional-unit class can next accept an
// operation.
type Pool struct {
	lat       isa.Latencies
	segmented [isa.NumUnits]bool
	nextFree  [isa.NumUnits]int64
	// copies[u] holds per-copy next-free cycles when unit u is
	// replicated; nil (the default) keeps the single copy tracked in
	// nextFree, so the base machine's hot path stays scan-free and
	// cycle-identical to the unreplicated pool.
	copies [isa.NumUnits][]int64
	// refused collects every unit EarliestAccept found busy.
	refused UnitSet
}

// UnitSet is a set of functional-unit classes, bit u for unit u.
type UnitSet uint16

// AllUnits holds every unit class.
const AllUnits UnitSet = 1<<isa.NumUnits - 1

// Has reports whether u is in the set.
func (s UnitSet) Has(u isa.Unit) bool { return s&(1<<u) != 0 }

// NewPool builds a pool with the given latency table. Segmentation
// defaults to non-segmented everywhere (use SetSegmented /
// SegmentAll); every class starts with one copy (use SetCount).
func NewPool(lat isa.Latencies) *Pool {
	return &Pool{lat: lat}
}

// SetCount replicates unit u into n identical copies sharing one
// dispatch port: an operation goes to whichever copy frees first.
// n < 1 panics; n == 1 restores the unreplicated fast path.
func (p *Pool) SetCount(u isa.Unit, n int) {
	if n < 1 {
		panic(fmt.Sprintf("fu: unit %s needs at least one copy, got %d", u, n))
	}
	if n == 1 {
		p.copies[u] = nil
		return
	}
	p.copies[u] = make([]int64, n)
}

// Count reports how many copies of unit u the pool has.
func (p *Pool) Count(u isa.Unit) int {
	if c := p.copies[u]; c != nil {
		return len(c)
	}
	return 1
}

// SetSegmented marks unit u as pipelined (true) or not (false).
func (p *Pool) SetSegmented(u isa.Unit, seg bool) { p.segmented[u] = seg }

// SegmentAll marks every unit pipelined.
func (p *Pool) SegmentAll() {
	for u := range p.segmented {
		p.segmented[u] = true
	}
}

// Segmented reports whether unit u is pipelined.
func (p *Pool) Segmented(u isa.Unit) bool { return p.segmented[u] }

// Latency returns the latency of unit u under this pool's table.
func (p *Pool) Latency(u isa.Unit) int { return p.lat.Of(u) }

// Reset marks every unit free at cycle 0. It keeps Refused.
func (p *Pool) Reset() {
	p.nextFree = [isa.NumUnits]int64{}
	for _, c := range p.copies {
		for i := range c {
			c[i] = 0
		}
	}
}

// EarliestAccept returns the earliest cycle >= t at which unit u can
// accept a new operation (on any copy, if replicated). An answer later
// than t adds u to Refused.
func (p *Pool) EarliestAccept(u isa.Unit, t int64) int64 {
	if c := p.copies[u]; c != nil {
		min := c[0]
		for _, f := range c[1:] {
			if f < min {
				min = f
			}
		}
		if min > t {
			p.refused |= 1 << u
			return min
		}
		return t
	}
	if p.nextFree[u] > t {
		p.refused |= 1 << u
		return p.nextFree[u]
	}
	return t
}

// Refused reports every unit that EarliestAccept ever answered with a
// cycle later than the one asked, over every run since the pool was
// built.
//
// A unit u missing from it was free at every call. Accept answers
// t + latency whichever copy takes the operation and overwrites the
// copy that frees first, so after the same calls a pool with n > k
// copies of u has its k latest free times no later, one for one, than
// a k-copy pool's, and its earliest free time is never later. Where
// the k-copy pool answered t to every EarliestAccept(u, t), the
// n-copy pool does too, so a machine built on either makes the same
// calls and gets the same answers.
func (p *Pool) Refused() UnitSet { return p.refused }

// CopyFrom makes p a copy of src: every unit's free times, its
// segmentation, latencies and copy counts, and its refusals. It reuses
// p's storage, so copying between two pools of one configuration
// allocates nothing.
func (p *Pool) CopyFrom(src *Pool) {
	copies := p.copies
	*p = *src
	for u, c := range src.copies {
		if c == nil {
			copies[u] = nil
		} else {
			copies[u] = append(copies[u][:0], c...)
		}
	}
	p.copies = copies
}

// MergeRefused adds every unit q refused to p's Refused: a machine
// whose run continued on a copy of its pool keeps covering that run.
func (p *Pool) MergeRefused(q *Pool) { p.refused |= q.refused }

// Accept records that unit u starts an operation at cycle t and
// returns the completion cycle. A segmented unit (copy) can accept
// again at t+1, a non-segmented one at completion. With replication
// the operation claims the copy that frees first.
func (p *Pool) Accept(u isa.Unit, t int64) (done int64) {
	done = t + int64(p.lat.Of(u))
	next := done
	if p.segmented[u] {
		next = t + 1
	}
	if c := p.copies[u]; c != nil {
		best := 0
		for i, f := range c[1:] {
			if f < c[best] {
				best = i + 1
			}
		}
		c[best] = next
		return done
	}
	p.nextFree[u] = next
	return done
}
