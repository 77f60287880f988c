package core

import (
	"fmt"
	"math"

	"mfup/internal/bus"
	"mfup/internal/events"
	"mfup/internal/fu"
	"mfup/internal/isa"
	"mfup/internal/mem"
	"mfup/internal/probe"
	"mfup/internal/trace"
)

// entry is one RUU slot in flight. Entries live in a fixed slab of
// cfg.RUUSize slots (the architectural bound on in-flight instructions)
// and are recycled through a free list as instructions commit, so a
// run performs no per-instruction allocation.
type entry struct {
	seq     int64
	op      *trace.Op
	flags   trace.OpFlags // decoded classification, from the prepared trace
	addrID  int32         // dense memory-address id (-1 for non-memory ops)
	bank    int
	issueAt int64

	depCount   int
	waiters    []*entry
	readyAt    int64
	dispatched bool
	done       bool
	doneAt     int64
}

// eventWindow is the scheduling horizon ring size; it must exceed the
// largest functional-unit latency plus pipeline slack.
const eventWindow = 64

// cycleList is a ring of per-cycle entry lists with self-invalidating
// cycle tags (same trick as internal/bus).
type cycleList struct {
	cycle   [eventWindow]int64
	entries [eventWindow][]*entry
}

func (l *cycleList) add(c int64, e *entry) {
	i := c % eventWindow
	if l.cycle[i] != c {
		l.cycle[i] = c
		l.entries[i] = l.entries[i][:0]
	}
	l.entries[i] = append(l.entries[i], e)
}

func (l *cycleList) take(c int64) []*entry {
	i := c % eventWindow
	if l.cycle[i] != c {
		return nil
	}
	l.cycle[i] = -1
	return l.entries[i]
}

// seqHeap is a min-heap of entries ordered by age (issue sequence):
// dispatch prefers the oldest ready instruction.
type seqHeap []*entry

func (h *seqHeap) push(e *entry) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[p].seq <= (*h)[i].seq {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

func (h *seqHeap) pop() *entry {
	old := *h
	e := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = nil
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && (*h)[l].seq < (*h)[s].seq {
			s = l
		}
		if r < n && (*h)[r].seq < (*h)[s].seq {
			s = r
		}
		if s == i {
			break
		}
		(*h)[i], (*h)[s] = (*h)[s], (*h)[i]
		i = s
	}
	return e
}

// ruuMachine implements §5.3: multiple issue units with full
// dependency resolution through a Register Update Unit (Sohi &
// Vajapeyam's RUU scheme [10, 13]).
//
// Instructions issue in order, up to N per cycle, into the RUU, where
// register renaming (per-register instance tracking) removes WAW and
// WAR hazards. Entries wait in the RUU for their operands, proceed to
// the functional units out of order when ready, receive results back
// over the functional-unit/RUU interconnect (with bypass: a result is
// usable the cycle it returns), and finally commit in program order
// to the register file, freeing their slot.
//
// Two interconnects are modeled, as in the paper:
//
//   - 1-Bus: one bus from the RUU to the functional units (one
//     dispatch per cycle), one bus back (one result per cycle), and
//     one bus to the register file (one commit per cycle).
//   - N-Bus (restricted): the RUU is partitioned into N banks, one
//     per issue unit, each with its own dispatch, result, and commit
//     bus; instruction k is issued to bank k mod N.
//
// Issue stalls when the RUU (bank) is full or when a branch is
// encountered: there is no speculation, so a branch holds the issue
// stage until it resolves, reading A0 through the bypass network as
// soon as the producing instruction's result returns.
type ruuMachine struct {
	cfg   Config
	banks int // dispatch/result/commit domains: N for BusN, 1 for Bus1
	pool  *fu.Pool

	capacity []int // slots per bank
	free     []int

	regProducer [isa.NumRegs]*entry
	regReadyAt  [isa.NumRegs]int64

	// Memory-carried dependences, renamed per address exactly like
	// registers: loads (and stores, for per-address ordering) wait on
	// the latest in-flight store to their address; there is no
	// store-to-load forwarding in the base machine. Indexed by the
	// dense trace.PreparedOp.AddrID, so access is a slice index.
	memProducer []*entry
	memReadyAt  []int64

	slab    []entry  // all entry storage; recycled between instructions
	freeEnt []*entry // free-list stack over slab

	fifo     []*entry // ring buffer of in-flight entries in program order
	fifoHead int
	fifoLen  int

	ready []seqHeap
	retry []*entry

	readyEvents cycleList
	broadcasts  cycleList
	results     *bus.Tracker // FU -> RUU result bus slots
	commitSeen  []bool       // per-bank commit-bus use, reset each cycle
	memBanks    *mem.Banks

	probe probe.Probe
	rec   *events.Recorder
}

// machineConfig exposes the configuration to the extrapolation engine.
func (s *ruuMachine) machineConfig() Config { return s.cfg }

// NewRUU builds the §5.3 machine: cfg.IssueUnits issue units over a
// cfg.RUUSize-entry Register Update Unit with the cfg.Bus
// interconnect (bus.BusN or bus.Bus1). It panics on an invalid
// configuration; NewRUUChecked is the error-returning form.
func NewRUU(cfg Config) Machine {
	m, err := NewRUUChecked(cfg)
	if err != nil {
		panic(err.Error())
	}
	return m
}

// NewRUUChecked builds the §5.3 machine, validating the configuration
// instead of panicking.
func NewRUUChecked(cfg Config) (Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.IssueUnits < 1 || cfg.RUUSize < cfg.IssueUnits {
		return nil, fmt.Errorf("core: RUU needs IssueUnits >= 1 and RUUSize >= IssueUnits, got %+v", cfg)
	}
	if cfg.Bus != bus.BusN && cfg.Bus != bus.Bus1 {
		return nil, fmt.Errorf("core: RUU takes the N-Bus or 1-Bus interconnect, got %s", cfg.Bus)
	}
	s := &ruuMachine{cfg: cfg, pool: cfg.newPool(), banks: 1}
	s.pool.SegmentAll()
	if cfg.Bus == bus.BusN {
		s.banks = cfg.IssueUnits
	}
	results, err := bus.NewTracker(cfg.Bus, s.banks, 0)
	if err != nil {
		return nil, err
	}
	s.results = results
	s.capacity = make([]int, s.banks)
	for i := 0; i < cfg.RUUSize; i++ {
		s.capacity[i%s.banks]++
	}
	s.free = make([]int, s.banks)
	s.slab = make([]entry, cfg.RUUSize)
	s.freeEnt = make([]*entry, 0, cfg.RUUSize)
	s.fifo = make([]*entry, cfg.RUUSize)
	s.ready = make([]seqHeap, s.banks)
	s.commitSeen = make([]bool, s.banks)
	s.memBanks = mem.NewBanks(cfg.MemBanks, cfg.MemLatency)
	return s, nil
}

func (s *ruuMachine) reset(numAddrs int) {
	s.pool.Reset()
	s.memBanks.Reset()
	copy(s.free, s.capacity)
	s.regProducer = [isa.NumRegs]*entry{}
	s.regReadyAt = [isa.NumRegs]int64{}
	if cap(s.memProducer) < numAddrs {
		s.memProducer = make([]*entry, numAddrs)
		s.memReadyAt = make([]int64, numAddrs)
	} else {
		s.memProducer = s.memProducer[:numAddrs]
		s.memReadyAt = s.memReadyAt[:numAddrs]
		clear(s.memProducer)
		clear(s.memReadyAt)
	}
	s.freeEnt = s.freeEnt[:0]
	for i := range s.slab {
		s.freeEnt = append(s.freeEnt, &s.slab[i])
	}
	s.fifoHead, s.fifoLen = 0, 0
	for i := range s.ready {
		s.ready[i] = s.ready[i][:0]
	}
	s.readyEvents = cycleList{}
	s.broadcasts = cycleList{}
	s.results.Reset()
}

func (s *ruuMachine) SetProbe(p probe.Probe) { s.probe = p }

func (s *ruuMachine) SetRecorder(r *events.Recorder) { s.rec = r }

func (s *ruuMachine) Name() string {
	return fmt.Sprintf("RUU(%d units, %d entries, %s)", s.cfg.IssueUnits, s.cfg.RUUSize, s.cfg.Bus)
}

// snapshot formats up to max in-flight RUU entries, oldest first, for
// a stall diagnostic.
func (s *ruuMachine) snapshot(max int) []string {
	var out []string
	for i := 0; i < s.fifoLen; i++ {
		if len(out) == max {
			out = append(out, fmt.Sprintf("... and %d more", s.fifoLen-max))
			break
		}
		e := s.fifo[(s.fifoHead+i)%len(s.fifo)]
		state := "waiting"
		switch {
		case e.done:
			state = "done"
		case e.dispatched:
			state = "executing"
		}
		out = append(out, fmt.Sprintf("#%d %s [%s, deps %d, ready %d]", e.seq, e.op, state, e.depCount, e.readyAt))
	}
	return out
}

func (s *ruuMachine) Run(t *trace.Trace) Result { return runUnchecked(s, t) }

// RunChecked simulates t under the limits. The machine steps cycle by
// cycle, so all three checks apply: cycle budget, no-forward-progress
// watchdog, and wall-clock deadline.
func (s *ruuMachine) RunChecked(t *trace.Trace, lim Limits) (Result, error) {
	name := s.Name()
	p := t.Prepared()
	if err := scalarOnly(name, p); err != nil {
		return Result{}, err
	}
	s.reset(p.NumAddrs)
	g := newGuard(name, t.Name, lim)
	if s.probe != nil {
		s.probe.Begin(name, t.Name, s.cfg.IssueUnits, s.cfg.RUUSize)
	}
	if s.rec != nil {
		s.rec.Begin(name, t.Name, s.cfg.IssueUnits)
	}

	var (
		pos       int   // next trace op to issue
		seq       int64 // issue sequence counter
		issueGate int64 // no issue before this cycle (branch resolution)
		lastEvent int64
	)
	bump := func(c int64) {
		if c > lastEvent {
			lastEvent = c
		}
	}

	for c := int64(0); pos < len(t.Ops) || s.fifoLen > 0; c++ {
		if err := g.Stalled(c, int64(pos), s.snapshot); err != nil {
			return Result{}, err
		}
		if err := g.Over(max(c, lastEvent), int64(pos)); err != nil {
			return Result{}, err
		}
		if err := g.Tick(c, int64(pos)); err != nil {
			return Result{}, err
		}
		if s.probe != nil {
			s.probe.Occupancy(s.fifoLen, 1)
		}
		// 1. Results returning this cycle: mark done, wake waiters.
		for _, e := range s.broadcasts.take(c) {
			e.done = true
			e.doneAt = c
			if s.probe != nil {
				s.probe.Writeback(c, e.op.Unit, int64(s.pool.Latency(e.op.Unit)))
			}
			if s.rec != nil {
				s.rec.RecordWriteback(e.op.Seq, c, e.op.Unit)
			}
			bump(c)
			g.Progress(c)
			if e.flags.Has(trace.FlagHasDst) && s.regProducer[e.op.Dst] == e {
				s.regProducer[e.op.Dst] = nil
				s.regReadyAt[e.op.Dst] = c
			}
			if e.flags.Has(trace.FlagStore) && s.memProducer[e.addrID] == e {
				s.memProducer[e.addrID] = nil
				s.memReadyAt[e.addrID] = c
			}
			for _, w := range e.waiters {
				w.depCount--
				if w.depCount == 0 {
					w.readyAt = c
					if w.issueAt+1 > w.readyAt {
						w.readyAt = w.issueAt + 1
					}
					s.schedule(w)
				}
			}
			e.waiters = e.waiters[:0]
		}

		// 2. Entries whose operands became available at cycle c.
		for _, e := range s.readyEvents.take(c) {
			s.ready[e.bank].push(e)
		}

		// 3. Commit from the head, in program order, one per
		// commit-bus domain per cycle.
		commitBudget := 1
		if s.cfg.Bus == bus.BusN {
			commitBudget = s.banks // one per bank; heads rotate banks
		}
		for i := range s.commitSeen {
			s.commitSeen[i] = false
		}
		for s.fifoLen > 0 && commitBudget > 0 {
			head := s.fifo[s.fifoHead]
			if !head.done || s.commitSeen[head.bank] {
				break
			}
			s.commitSeen[head.bank] = true
			commitBudget--
			if s.rec != nil {
				s.rec.RecordCommit(head.op.Seq, c)
			}
			s.free[head.bank]++
			s.fifo[s.fifoHead] = nil
			s.fifoHead = (s.fifoHead + 1) % len(s.fifo)
			s.fifoLen--
			s.freeEnt = append(s.freeEnt, head) // recycle the slot
			bump(c)
			g.Progress(c)
		}

		// 4. Dispatch ready entries, oldest first, one per dispatch-
		// bus domain per cycle, subject to functional-unit acceptance
		// and a free result slot at completion.
		for b := 0; b < s.banks; b++ {
			if s.dispatchBank(b, c, &lastEvent) {
				g.Progress(c)
			}
		}

		// 5. Issue up to N instructions into the RUU, in program
		// order, stopping at a branch or a full bank. When probed, the
		// cycle's unfilled issue slots are blamed on whatever stopped
		// the loop; slots with no instructions left are the drain,
		// which the probe derives itself.
		issuedNow := int64(0)
		stallReason := probe.ReasonDrain // sentinel: nothing blocked
		if c < issueGate && pos < len(t.Ops) {
			stallReason = probe.ReasonBranch
		}
		if c >= issueGate {
			for issued := 0; issued < s.cfg.IssueUnits && pos < len(t.Ops); issued++ {
				op := &t.Ops[pos]
				po := &p.Ops[pos]
				if po.Flags.Has(trace.FlagBranch) {
					if s.cfg.PerfectBranches {
						// Ablation: the branch consumes this issue slot
						// and nothing more.
						issuedNow++
						if s.probe != nil {
							s.probe.BranchResolve(c)
						}
						if s.rec != nil {
							s.rec.RecordIssue(op.Seq, c)
							s.rec.RecordBranchResolve(op.Seq, c)
						}
						bump(c)
						g.Progress(c)
						pos++
						seq++
						continue
					}
					a0 := int64(0)
					if po.Flags.Has(trace.FlagConditional) {
						if s.regProducer[isa.A0] != nil {
							stallReason = probe.ReasonBranch
							break // A0 still in flight; retry next cycle
						}
						a0 = s.regReadyAt[isa.A0]
					}
					if a0 > c {
						stallReason = probe.ReasonBranch
						break // retry once A0 is readable
					}
					issueGate = c + int64(s.cfg.BranchLatency)
					issuedNow++
					stallReason = probe.ReasonBranch
					if s.probe != nil {
						s.probe.BranchResolve(issueGate)
					}
					if s.rec != nil {
						s.rec.RecordIssue(op.Seq, c)
						s.rec.RecordBranchResolve(op.Seq, issueGate)
					}
					bump(issueGate)
					g.Progress(c)
					pos++
					seq++
					break // nothing issues past an unresolved branch
				}

				bank := int(seq) % s.banks
				if s.free[bank] == 0 {
					stallReason = probe.ReasonBufferFull
					break // RUU (bank) full: in-order issue stalls
				}
				issuedNow++
				s.free[bank]--
				e := s.freeEnt[len(s.freeEnt)-1]
				s.freeEnt = s.freeEnt[:len(s.freeEnt)-1]
				// Field-wise reinitialization (not a struct literal):
				// the literal compiles to a full-size copy on every
				// issued instruction, and this is the hottest store in
				// the simulator.
				e.seq, e.op, e.flags, e.addrID = seq, op, po.Flags, po.AddrID
				e.bank, e.issueAt = bank, c
				if s.rec != nil {
					s.rec.RecordAlloc(op.Seq, c)
					s.rec.RecordIssue(op.Seq, c)
				}
				e.depCount, e.readyAt = 0, 0
				e.waiters = e.waiters[:0] // keep the recycled capacity
				e.dispatched, e.done = false, false
				e.doneAt = math.MaxInt64
				seq++
				pos++
				s.fifo[(s.fifoHead+s.fifoLen)%len(s.fifo)] = e
				s.fifoLen++

				for _, r := range po.Reads() {
					if prod := s.regProducer[r]; prod != nil {
						prod.waiters = append(prod.waiters, e)
						e.depCount++
					} else if s.regReadyAt[r] > e.readyAt {
						e.readyAt = s.regReadyAt[r]
					}
				}
				if po.Flags.Has(trace.FlagMemory) {
					if prod := s.memProducer[po.AddrID]; prod != nil {
						prod.waiters = append(prod.waiters, e)
						e.depCount++
					} else if d := s.memReadyAt[po.AddrID]; d > e.readyAt {
						e.readyAt = d
					}
				}
				if po.Flags.Has(trace.FlagHasDst) {
					s.regProducer[op.Dst] = e
				}
				if po.Flags.Has(trace.FlagStore) {
					s.memProducer[po.AddrID] = e
				}
				if e.depCount == 0 {
					if e.issueAt+1 > e.readyAt {
						e.readyAt = e.issueAt + 1
					}
					s.schedule(e)
				}
				bump(c)
				g.Progress(c)
			}
		}
		if s.probe != nil {
			if issuedNow > 0 {
				s.probe.Issue(c, issuedNow)
			}
			if stallReason != probe.ReasonDrain && pos < len(t.Ops) {
				if lost := int64(s.cfg.IssueUnits) - issuedNow; lost > 0 {
					s.probe.Stall(c, stallReason, lost)
				}
			}
		}
	}
	if s.probe != nil {
		s.probe.End(lastEvent)
	}
	if s.rec != nil {
		s.rec.End(lastEvent)
	}
	return Result{
		Machine:      name,
		Trace:        t.Name,
		Instructions: int64(len(t.Ops)),
		Cycles:       lastEvent,
	}, nil
}

// schedule queues e for dispatch at e.readyAt.
func (s *ruuMachine) schedule(e *entry) {
	s.readyEvents.add(e.readyAt, e)
}

// dispatchBank sends at most one ready entry from bank b to the
// functional units at cycle c and reports whether it dispatched one.
// Entries that fail a structural check (unit busy, result slot taken)
// stay queued.
func (s *ruuMachine) dispatchBank(b int, c int64, lastEvent *int64) bool {
	h := &s.ready[b]
	s.retry = s.retry[:0]
	dispatched := false
	for len(*h) > 0 && !dispatched {
		e := h.pop()
		unit := e.op.Unit
		if s.pool.EarliestAccept(unit, c) > c {
			s.retry = append(s.retry, e)
			continue
		}
		isMem := e.flags.Has(trace.FlagMemory)
		if isMem && s.memBanks.EarliestAccept(e.op.Addr, c) > c {
			s.retry = append(s.retry, e)
			continue
		}
		done := c + int64(s.pool.Latency(unit))
		needsBus := e.flags.Has(trace.FlagHasDst)
		if needsBus && !s.results.Free(b, done) {
			s.retry = append(s.retry, e)
			continue
		}
		s.pool.Accept(unit, c)
		if isMem {
			s.memBanks.Accept(e.op.Addr, c)
		}
		e.dispatched = true
		if s.rec != nil {
			s.rec.RecordExec(e.op.Seq, c, unit, done-c)
		}
		if needsBus {
			if s.rec != nil {
				s.rec.RecordResultBus(e.op.Seq, done, b)
			}
			s.results.Reserve(b, done)
			s.broadcasts.add(done, e)
		} else {
			// Stores: the memory operation completes without a
			// register result; the entry is committable at completion.
			s.broadcasts.add(done, e)
		}
		if done > *lastEvent {
			*lastEvent = done
		}
		dispatched = true
	}
	for _, e := range s.retry {
		h.push(e)
	}
	return dispatched
}
