// Package bus models the result-bus interconnect between the outputs
// of the functional units and the register file (§5.1 of the paper).
//
// Three organizations are studied:
//
//   - XBar: N busses in a full crossbar; a result may return on any
//     free bus, so at most N results per cycle, regardless of which
//     issue station produced them.
//   - BusN: N busses, but the result of an instruction issued from
//     station i may use only bus i; station i therefore conflicts
//     only with its own earlier results.
//   - Bus1: a single result bus shared by everything; at most one
//     result per cycle machine-wide.
//
// An instruction reserves its result slot at issue time, for the
// cycle its result will appear; if the slot is taken, issue stalls.
package bus

import (
	"fmt"
	"math/bits"
)

// Kind selects the interconnect organization.
type Kind uint8

// Interconnect kinds.
const (
	XBar Kind = iota // any of N busses
	BusN             // bus i dedicated to issue station i
	Bus1             // one bus for everything
)

// String names the organization as the paper's tables do.
func (k Kind) String() string {
	switch k {
	case XBar:
		return "X-Bar"
	case BusN:
		return "N-Bus"
	case Bus1:
		return "1-Bus"
	}
	return fmt.Sprintf("bus.Kind(%d)", uint8(k))
}

// MaxHorizon is the longest horizon RingSize holds exactly. A longer
// one gets the ring for MaxHorizon, which keeps a ring's memory
// bounded under absurd latencies; bookings further ahead than
// MaxHorizon cycles may then share a slot with a pending one.
const MaxHorizon = 1<<12 - 1

// RingSize returns the slot count of a cycle-indexed ring that holds
// bookings up to horizon cycles ahead of the current cycle: the
// smallest power of two above horizon (up to MaxHorizon). No two
// pending cycles then share a slot, and a slot is found by masking
// the cycle. The cycle-stepped machines size every such ring (result
// buses, event lists) this way from their largest unit latency.
func RingSize(horizon int) int { return 1 << bits.Len(uint(min(horizon, MaxHorizon))) }

// Tracker schedules result-bus reservations. It exploits monotonic
// time: a slot is identified by the absolute cycle stored in it, so
// stale entries from ring wrap-around are self-invalidating, and a
// ring of RingSize(horizon) slots never evicts a pending reservation.
type Tracker struct {
	kind  Kind
	n     int
	buses int // shared-cycle capacity for XBar; 1 for Bus1

	// slots holds one ring of RingSize(horizon) slots for the shared
	// kinds (XBar, Bus1), where slots[c&mask] counts results on cycle
	// c, and one ring per station for BusN, where station i's bus is
	// slots[i*stride+c&mask].
	slots  []slot
	mask   int64
	stride int // ring length for BusN, 0 for the shared kinds
	limit  int // results one slot may hold
}

type slot struct {
	cycle int64
	count int
}

// NewTracker builds a tracker for kind k with stations issue stations
// and an explicit shared-bus count. buses == 0 keeps the paper's
// defaults (one bus per station for the crossbar); a positive count
// sizes the XBar's per-cycle result capacity independently of the
// station count, which is the design-space knob a sweep varies. BusN
// is per-station by definition and Bus1 has exactly one bus, so for
// those kinds a positive buses must restate the implied count —
// anything else is a configuration error, not a silent
// reinterpretation. horizon is the furthest ahead of the current
// cycle a result may be booked: the machine's largest unit latency.
func NewTracker(k Kind, stations, buses, horizon int) (*Tracker, error) {
	if stations < 1 {
		return nil, fmt.Errorf("bus: need at least 1 station, got %d", stations)
	}
	if buses < 0 {
		return nil, fmt.Errorf("bus: negative bus count %d", buses)
	}
	if horizon < 0 {
		return nil, fmt.Errorf("bus: negative reservation horizon %d", horizon)
	}
	if k > Bus1 {
		return nil, fmt.Errorf("bus: unknown interconnect kind %d", uint8(k))
	}
	ring, rings := RingSize(horizon), 1
	t := &Tracker{kind: k, n: stations, mask: int64(ring - 1), limit: 1}
	switch k {
	case XBar:
		t.buses = buses
		if t.buses == 0 {
			t.buses = stations
		}
		t.limit = t.buses
	case BusN:
		if buses != 0 && buses != stations {
			return nil, fmt.Errorf("bus: %s dedicates one bus per station; %d buses with %d stations is contradictory", k, buses, stations)
		}
		t.buses = stations
		t.stride, rings = ring, stations
	case Bus1:
		if buses > 1 {
			return nil, fmt.Errorf("bus: %s has exactly one bus, got %d", k, buses)
		}
		t.buses = 1
	}
	t.slots = make([]slot, rings*ring)
	return t, nil
}

// Buses reports the tracker's result-bus count: per-cycle capacity
// for XBar, one per station for BusN, one for Bus1.
func (t *Tracker) Buses() int { return t.buses }

// Kind returns the tracker's organization.
func (t *Tracker) Kind() Kind { return t.kind }

// Reset clears all reservations.
func (t *Tracker) Reset() { clear(t.slots) }

// CopyFrom makes t a copy of src, a tracker of the same kind, station
// count and horizon, reusing t's ring.
func (t *Tracker) CopyFrom(src *Tracker) {
	slots := append(t.slots[:0], src.slots...)
	*t = *src
	t.slots = slots
}

// Free reports whether station's bus can deliver a result on cycle c.
func (t *Tracker) Free(station int, c int64) bool {
	s := &t.slots[station*t.stride+int(c&t.mask)]
	return s.cycle != c || s.count < t.limit
}

// Reserve books station's bus for a result on cycle c. The caller
// must have checked Free.
func (t *Tracker) Reserve(station int, c int64) {
	s := &t.slots[station*t.stride+int(c&t.mask)]
	if s.cycle != c {
		s.cycle = c
		s.count = 0
	}
	s.count++
}

// EarliestIssue returns the earliest cycle e >= issueAt such that a
// result produced by issuing at e (appearing at e+latency) finds a
// free slot on station's bus.
func (t *Tracker) EarliestIssue(station int, issueAt int64, latency int) int64 {
	e := issueAt
	for !t.Free(station, e+int64(latency)) {
		e++
	}
	return e
}
