package core

import (
	"fmt"
	"slices"

	"mfup/internal/bus"
	"mfup/internal/fu"
	"mfup/internal/isa"
	"mfup/internal/probe"
	"mfup/internal/trace"
)

// DefaultStations is the reservation-station count per functional
// unit for the Tomasulo machine when the configuration does not say
// otherwise. The IBM 360/91 floating-point unit had 2-3 stations per
// unit; 4 is a generous, round setting.
const DefaultStations = 4

// tomasulo implements the second §3.3 dependency-resolution scheme:
// the IBM 360/91 algorithm. A single issue unit places instructions
// into per-functional-unit reservation stations; register renaming
// through station tags removes both WAW and WAR hazards, so issue
// stalls only when the needed unit's stations are full or a branch is
// encountered. Results return over a single common data bus — one
// broadcast per cycle, the scheme's signature bottleneck — with full
// bypass: a broadcast value is usable the same cycle.
//
// Unlike the RUU, nothing commits in order (the 360/91 is the classic
// imprecise-interrupt design): a station frees as soon as its result
// has been broadcast.
type tomasulo struct {
	lifecycle
	stations int
	pool     *fu.Pool

	inFlight [isa.NumUnits]int
	regTag   [isa.NumRegs]ref
	regReady [isa.NumRegs]int64
	memTag   []ref // by trace.PreparedOp.AddrID
	memReady []int64

	// cdb is the common data bus's self-invalidating reservation
	// ring: cdb[c&cdbMask] == c marks cycle c booked. It holds
	// bus.RingSize(cfg.horizon()) slots, so no pending booking is
	// ever evicted by a later one.
	cdb     []int64
	cdbMask int64

	// Reservation-station entries live in slab[1:] (slot 0 is the
	// zero-ref sentinel, as in the RUU) and are recycled through
	// freeEnt as their results broadcast. The slab grows to the most
	// entries ever in flight at once and keeps that size across runs,
	// so a warmed machine allocates nothing per instruction.
	slab    []tomEntry
	freeEnt []ref
	live    int // entries in flight

	broadcasts cycleList // started entries by the cycle their result broadcasts
	ready      []ref     // unstarted entries with every operand, oldest first
}

type tomEntry struct {
	pos      int // trace position: issue order
	op       *trace.Op
	flags    trace.OpFlags
	addrID   int32
	depCount int
	waiters  []ref
	readyAt  int64
	started  bool
	inUse    bool
}

// NewTomasulo builds the §3.3 Tomasulo machine. cfg.RUUSize, when
// positive, sets the reservation stations per functional unit
// (total buffering is therefore RUUSize x the number of units);
// otherwise DefaultStations is used. It reports an invalid
// configuration as an error.
func NewTomasulo(cfg Config) (Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	stations := cfg.RUUSize
	if stations <= 0 {
		stations = DefaultStations
	}
	pool := cfg.newPool()
	pool.SegmentAll()
	horizon := cfg.horizon()
	ring := bus.RingSize(horizon)
	return &tomasulo{
		lifecycle: lifecycle{cfg: cfg}, stations: stations, pool: pool,
		cdb: make([]int64, ring), cdbMask: int64(ring - 1),
		slab: make([]tomEntry, 1), broadcasts: newCycleList(horizon),
	}, nil
}

func (m *tomasulo) Name() string {
	return fmt.Sprintf("Tomasulo(%d stations/unit)", m.stations)
}

func (m *tomasulo) reset(numAddrs int) {
	m.pool.Reset()
	m.inFlight = [isa.NumUnits]int{}
	m.regTag = [isa.NumRegs]ref{}
	m.regReady = [isa.NumRegs]int64{}
	if cap(m.memTag) < numAddrs {
		m.memTag = make([]ref, numAddrs)
		m.memReady = make([]int64, numAddrs)
	} else {
		m.memTag = m.memTag[:numAddrs]
		m.memReady = m.memReady[:numAddrs]
		clear(m.memTag)
		clear(m.memReady)
	}
	for i := range m.cdb {
		m.cdb[i] = -1
	}
	m.freeEnt = m.freeEnt[:0]
	for r := ref(len(m.slab) - 1); r > 0; r-- {
		m.slab[r].inUse = false
		m.freeEnt = append(m.freeEnt, r)
	}
	m.live = 0
	m.broadcasts.reset()
	m.ready = m.ready[:0]
}

// alloc takes a free reservation-station entry, growing the slab
// when every entry is in flight.
func (m *tomasulo) alloc() ref {
	if n := len(m.freeEnt); n > 0 {
		r := m.freeEnt[n-1]
		m.freeEnt = m.freeEnt[:n-1]
		return r
	}
	m.slab = append(m.slab, tomEntry{})
	return ref(len(m.slab) - 1)
}

// insertReady files entry r in the age-ordered ready list. Arrivals
// come nearly in age order, so the search runs from the tail.
func (m *tomasulo) insertReady(r ref) {
	l := append(m.ready, r)
	pos := m.slab[r].pos
	i := len(l) - 1
	for ; i > 0 && m.slab[l[i-1]].pos > pos; i-- {
		l[i] = l[i-1]
	}
	l[i] = r
	m.ready = l
}

// cdbFree reports whether the common data bus is unreserved at cycle c.
func (m *tomasulo) cdbFree(c int64) bool { return m.cdb[c&m.cdbMask] != c }

func (m *tomasulo) cdbReserve(c int64) { m.cdb[c&m.cdbMask] = c }

// byIssue orders entries by issue, for slices.SortFunc.
func (m *tomasulo) byIssue(a, b ref) int { return m.slab[a].pos - m.slab[b].pos }

// snapshot formats up to max in-flight reservation-station entries,
// in issue order, for a stall diagnostic.
func (m *tomasulo) snapshot(max int) []string {
	var live []ref
	for r := 1; r < len(m.slab); r++ {
		if m.slab[r].inUse {
			live = append(live, ref(r))
		}
	}
	slices.SortFunc(live, m.byIssue)
	var out []string
	for _, r := range live {
		if len(out) == max {
			out = append(out, fmt.Sprintf("... and %d more", len(live)-max))
			break
		}
		e := &m.slab[r]
		state := "waiting"
		if e.started {
			state = "executing"
		}
		out = append(out, fmt.Sprintf("%s [%s, deps %d, ready %d]", e.op, state, e.depCount, e.readyAt))
	}
	return out
}

// RunChecked simulates t under the limits. The machine steps cycle by
// cycle, so all three checks apply: cycle budget, stall watchdog, and
// wall-clock deadline.
func (m *tomasulo) RunChecked(t *trace.Trace, lim Limits) (Result, error) {
	return runChecked(m, t, lim)
}

func (m *tomasulo) begin(t *trace.Trace, lim Limits) error {
	// One issue slot per cycle; occupancy levels range over the whole
	// reservation-station pool.
	p, err := m.start(m.Name(), t, lim, scalarOnly, 1, m.stations*int(isa.NumUnits))
	if err != nil {
		return err
	}
	m.reset(p.NumAddrs)
	return nil
}

// advance steps cycles until one starts with op at next to issue.
func (m *tomasulo) advance(at int) (Result, bool, error) {
	t, p, g := m.st.t, m.st.p, m.st.g
	var (
		pos       = m.st.pos
		issueGate = m.st.next
		lastEvent = m.st.last
	)
	bump := func(c int64) {
		if c > lastEvent {
			lastEvent = c
		}
	}
	observed := m.probe != nil || m.rec != nil

	for c := m.st.c; pos < len(t.Ops) || m.live > 0; c++ {
		if pos >= at {
			m.st.pos, m.st.c, m.st.next, m.st.last, m.st.g = pos, c, issueGate, lastEvent, g
			return Result{}, false, nil
		}
		if err := g.Stalled(c, int64(pos), m.snapshot); err != nil {
			return Result{}, false, err
		}
		if err := g.Over(max(c, lastEvent), int64(pos)); err != nil {
			return Result{}, false, err
		}
		if err := g.Tick(c, int64(pos)); err != nil {
			return Result{}, false, err
		}
		if m.probe != nil {
			m.probe.Occupancy(m.live, 1)
		}
		// 1. Broadcasts: entries whose results appear this cycle free
		// their stations and wake dependents (bypass: usable at c).
		done := m.broadcasts.take(c)
		if observed && len(done) > 1 {
			// Report the cycle's broadcasts in issue order.
			slices.SortFunc(done, m.byIssue)
		}
		for _, r := range done {
			e := &m.slab[r]
			if m.probe != nil {
				m.probe.Writeback(c, e.op.Unit, int64(m.pool.Latency(e.op.Unit)))
			}
			if m.rec != nil {
				// The broadcast both writes the result back and frees
				// the reservation station (the 360/91 has no in-order
				// commit; the release is the commit here).
				m.rec.RecordWriteback(e.op.Seq, c, e.op.Unit)
				m.rec.RecordCommit(e.op.Seq, c)
			}
			m.inFlight[e.op.Unit]--
			if e.op.Dst.Valid() && m.regTag[e.op.Dst] == r {
				m.regTag[e.op.Dst] = 0
				m.regReady[e.op.Dst] = c
			}
			if e.flags.Has(trace.FlagStore) && m.memTag[e.addrID] == r {
				m.memTag[e.addrID] = 0
				m.memReady[e.addrID] = c
			}
			for _, wr := range e.waiters {
				w := &m.slab[wr]
				if w.depCount--; w.depCount == 0 {
					if c > w.readyAt {
						w.readyAt = c
					}
					m.insertReady(wr)
				}
			}
			e.waiters = e.waiters[:0]
			e.inUse = false
			m.freeEnt = append(m.freeEnt, r)
			m.live--
			bump(c)
			g.Progress(c)
		}

		// 2. Begin execution: stations with ready operands start at
		// their unit, reserving a common-data-bus slot for their
		// completion. Oldest first.
		if len(m.ready) > 0 {
			keep := m.ready[:0]
			for _, r := range m.ready {
				e := &m.slab[r]
				unit := e.op.Unit
				if e.readyAt > c || m.pool.EarliestAccept(unit, c) > c {
					keep = append(keep, r)
					continue
				}
				done := c + int64(m.pool.Latency(unit))
				usesCDB := e.op.Dst.Valid()
				if usesCDB && !m.cdbFree(done) {
					keep = append(keep, r) // retry next cycle
					continue
				}
				m.pool.Accept(unit, c)
				if usesCDB {
					m.cdbReserve(done)
				}
				if m.rec != nil {
					m.rec.RecordExec(e.op.Seq, c, unit, done-c)
					if usesCDB {
						m.rec.RecordResultBus(e.op.Seq, done, 0)
					}
				}
				e.started = true
				m.broadcasts.add(done, r)
				bump(done)
				g.Progress(c)
			}
			m.ready = keep
		}

		// 3. Issue: one instruction per cycle into a reservation
		// station; stalls on a full station pool or a branch. When
		// probed, every cycle with instructions left to issue files its
		// slot: an Issue or exactly one attributed Stall. (Cycles after
		// the last issue are the drain, derived by the probe itself.)
		if pos < len(t.Ops) && c < issueGate {
			if m.probe != nil {
				m.probe.Stall(c, probe.ReasonBranch, 1)
			}
		}
		if c >= issueGate && pos < len(t.Ops) {
			op := &t.Ops[pos]
			po := &p.Ops[pos]
			if po.Flags.Has(trace.FlagBranch) {
				if m.cfg.PerfectBranches {
					if m.probe != nil {
						m.probe.Issue(c, 1)
						m.probe.BranchResolve(c)
					}
					if m.rec != nil {
						m.rec.RecordIssue(op.Seq, c)
						m.rec.RecordBranchResolve(op.Seq, c)
					}
					bump(c)
					g.Progress(c)
					pos++
				} else {
					stall := false
					a0 := int64(0)
					if po.Flags.Has(trace.FlagConditional) {
						if m.regTag[isa.A0] != 0 {
							stall = true // A0 still in flight
						} else {
							a0 = m.regReady[isa.A0]
						}
					}
					if !stall && a0 <= c {
						issueGate = c + int64(m.cfg.BranchLatency)
						if m.probe != nil {
							m.probe.Issue(c, 1)
							m.probe.BranchResolve(issueGate)
						}
						if m.rec != nil {
							m.rec.RecordIssue(op.Seq, c)
							m.rec.RecordBranchResolve(op.Seq, issueGate)
						}
						bump(issueGate)
						g.Progress(c)
						pos++
					} else if m.probe != nil {
						// The branch owns the issue stage while its A0
						// condition is in flight.
						m.probe.Stall(c, probe.ReasonBranch, 1)
					}
				}
			} else if m.inFlight[op.Unit] < m.stations {
				if m.probe != nil {
					m.probe.Issue(c, 1)
				}
				if m.rec != nil {
					m.rec.RecordAlloc(op.Seq, c)
					m.rec.RecordIssue(op.Seq, c)
				}
				m.inFlight[op.Unit]++
				r := m.alloc()
				e := &m.slab[r]
				// Field-wise reinitialization keeps the recycled
				// waiters capacity (see the RUU's issue loop). A slot
				// freed by reset, not by its broadcast, still holds the
				// waiters of an aborted run.
				e.pos, e.op, e.flags, e.addrID = pos, op, po.Flags, po.AddrID
				e.depCount, e.readyAt, e.started, e.inUse = 0, c+1, false, true
				e.waiters = e.waiters[:0]
				m.live++
				pos++
				for _, rg := range po.Reads() {
					if prod := m.regTag[rg]; prod != 0 {
						m.slab[prod].waiters = append(m.slab[prod].waiters, r)
						e.depCount++
					} else if m.regReady[rg] > e.readyAt {
						e.readyAt = m.regReady[rg]
					}
				}
				if po.Flags.Has(trace.FlagMemory) {
					if prod := m.memTag[po.AddrID]; prod != 0 {
						m.slab[prod].waiters = append(m.slab[prod].waiters, r)
						e.depCount++
					} else if d := m.memReady[po.AddrID]; d > e.readyAt {
						e.readyAt = d
					}
				}
				if po.Flags.Has(trace.FlagHasDst) {
					m.regTag[op.Dst] = r
				}
				if po.Flags.Has(trace.FlagStore) {
					m.memTag[po.AddrID] = r
				}
				if e.depCount == 0 {
					m.insertReady(r)
				}
				bump(c)
				g.Progress(c)
			} else if m.probe != nil {
				// No free reservation station on the needed unit.
				m.probe.Stall(c, probe.ReasonBufferFull, 1)
			}
		}
	}
	m.st.pos, m.st.next, m.st.last = pos, issueGate, lastEvent
	return m.finish()
}

func (m *tomasulo) units() *fu.Pool { return m.pool }

func (m *tomasulo) spare() forker { return spareOf(NewTomasulo(m.cfg)) }

func (m *tomasulo) fork(src forker, t *trace.Trace, p probe.Probe) {
	s := src.(*tomasulo)
	m.pool.CopyFrom(s.pool)
	m.inFlight, m.regTag, m.regReady = s.inFlight, s.regTag, s.regReady
	n := t.Prepared().NumAddrs
	m.memTag = copyResized(m.memTag, s.memTag, n)
	m.memReady = copyResized(m.memReady, s.memReady, n)
	copy(m.cdb, s.cdb)
	m.slab = copySlab(m.slab, s.slab, func(e *tomEntry) *[]ref { return &e.waiters })
	m.freeEnt = append(m.freeEnt[:0], s.freeEnt...)
	m.live = s.live
	m.broadcasts.copyFrom(&s.broadcasts)
	m.ready = append(m.ready[:0], s.ready...)
	m.resume(&s.lifecycle, t, p)
}
