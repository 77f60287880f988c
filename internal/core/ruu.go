package core

import (
	"fmt"

	"mfup/internal/bus"
	"mfup/internal/fu"
	"mfup/internal/isa"
	"mfup/internal/mem"
	"mfup/internal/probe"
	"mfup/internal/trace"
)

// entry is one RUU slot in flight. Entries live in a fixed slab of
// cfg.RUUSize slots (the architectural bound on in-flight instructions)
// after the sentinel slot 0 (see ref), and are recycled through a free
// list as instructions commit, so a run performs no per-instruction
// allocation.
type entry struct {
	seq    int64
	op     *trace.Op
	flags  trace.OpFlags // decoded classification, from the prepared trace
	addrID int32         // dense memory-address id (-1 for non-memory ops)
	unit   isa.Unit      // op.Unit, cached at issue
	bank   int
	lat    int64 // the unit's latency, cached at issue

	depCount   int
	waiters    []ref
	readyAt    int64
	dispatched bool
	done       bool
}

// ref names an RUU entry by its index in the slab. Index 0 is a
// sentinel that is never allocated, so the zero ref means "no entry"
// and zeroed tables need no initialization. Indices instead of
// pointers keep the cycle loop's stores free of GC write barriers.
type ref int32

// cycleList is a ring of per-cycle entry lists with self-invalidating
// cycle tags (same trick as internal/bus). It holds
// bus.RingSize(horizon) slots, so every cycle up to the machine's
// largest latency ahead has a slot of its own, and it keeps each
// list's capacity across runs.
type cycleList struct {
	mask    int64
	cycle   []int64
	entries [][]ref
}

func newCycleList(horizon int) cycleList {
	n := bus.RingSize(horizon)
	return cycleList{mask: int64(n - 1), cycle: make([]int64, n), entries: make([][]ref, n)}
}

// reset empties every slot.
func (l *cycleList) reset() {
	for i := range l.cycle {
		l.cycle[i] = -1
		l.entries[i] = l.entries[i][:0]
	}
}

// copyFrom makes l a copy of src, a list of the same horizon, reusing
// l's lists.
func (l *cycleList) copyFrom(src *cycleList) {
	l.mask = src.mask
	l.cycle = append(l.cycle[:0], src.cycle...)
	for i, e := range src.entries {
		l.entries[i] = append(l.entries[i][:0], e...)
	}
}

func (l *cycleList) add(c int64, r ref) {
	i := c & l.mask
	if l.cycle[i] != c {
		l.cycle[i] = c
		l.entries[i] = l.entries[i][:0]
	}
	l.entries[i] = append(l.entries[i], r)
}

func (l *cycleList) take(c int64) []ref {
	i := c & l.mask
	if l.cycle[i] != c {
		return nil
	}
	l.cycle[i] = -1
	return l.entries[i]
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
	lifecycle
	banks int // dispatch/result/commit domains: N for BusN, 1 for Bus1
	pool  *fu.Pool

	capacity []int // slots per bank
	free     []int

	regProducer [isa.NumRegs]ref
	regReadyAt  [isa.NumRegs]int64

	// Memory-carried dependences, renamed per address exactly like
	// registers: loads (and stores, for per-address ordering) wait on
	// the latest in-flight store to their address; there is no
	// store-to-load forwarding in the base machine. Indexed by the
	// dense trace.PreparedOp.AddrID, so access is a slice index.
	memProducer []ref
	memReadyAt  []int64

	slab    []entry // all entry storage, slab[1:]; recycled between instructions
	freeEnt []ref   // free-list stack over slab

	fifo     []ref // ring buffer of in-flight entries in program order
	fifoHead int
	fifoTail int
	fifoLen  int

	// ready[b] holds bank b's entries whose operands are available,
	// in age order (ages are unique), so dispatch scans oldest first.
	ready [][]ref

	broadcasts cycleList    // entries by the cycle their result returns
	results    *bus.Tracker // FU -> RUU result bus slots
	commitAt   []int64      // per bank: the last cycle its commit bus carried a commit
	memBanks   *mem.Banks
}

func (s *ruuMachine) units() *fu.Pool { return s.pool }

func (s *ruuMachine) spare() forker { return spareOf(NewRUU(s.cfg)) }

func (s *ruuMachine) fork(src forker, t *trace.Trace, p probe.Probe) {
	o := src.(*ruuMachine)
	s.pool.CopyFrom(o.pool)
	copy(s.free, o.free)
	s.regProducer, s.regReadyAt = o.regProducer, o.regReadyAt
	n := t.Prepared().NumAddrs
	s.memProducer = copyResized(s.memProducer, o.memProducer, n)
	s.memReadyAt = copyResized(s.memReadyAt, o.memReadyAt, n)
	s.slab = copySlab(s.slab, o.slab, func(e *entry) *[]ref { return &e.waiters })
	s.freeEnt = append(s.freeEnt[:0], o.freeEnt...)
	copy(s.fifo, o.fifo)
	s.fifoHead, s.fifoTail, s.fifoLen = o.fifoHead, o.fifoTail, o.fifoLen
	for b, l := range o.ready {
		s.ready[b] = append(s.ready[b][:0], l...)
	}
	s.broadcasts.copyFrom(&o.broadcasts)
	s.results.CopyFrom(o.results)
	copy(s.commitAt, o.commitAt)
	s.memBanks.CopyFrom(o.memBanks)
	s.resume(&o.lifecycle, t, p)
}

// NewRUU builds the §5.3 machine: cfg.IssueUnits issue units over a
// cfg.RUUSize-entry Register Update Unit with the cfg.Bus
// interconnect (bus.BusN or bus.Bus1). It reports an invalid
// configuration as an error.
func NewRUU(cfg Config) (Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.IssueUnits < 1 || cfg.RUUSize < cfg.IssueUnits {
		return nil, fmt.Errorf("core: RUU needs IssueUnits >= 1 and RUUSize >= IssueUnits, got %+v", cfg)
	}
	if cfg.Bus != bus.BusN && cfg.Bus != bus.Bus1 {
		return nil, fmt.Errorf("core: RUU takes the N-Bus or 1-Bus interconnect, got %s", cfg.Bus)
	}
	s := &ruuMachine{lifecycle: lifecycle{cfg: cfg}, pool: cfg.newPool(), banks: 1}
	s.pool.SegmentAll()
	if cfg.Bus == bus.BusN {
		s.banks = cfg.IssueUnits
	}
	horizon := cfg.horizon()
	results, err := bus.NewTracker(cfg.Bus, s.banks, 0, horizon)
	if err != nil {
		return nil, err
	}
	s.results = results
	s.broadcasts = newCycleList(horizon)
	s.capacity = make([]int, s.banks)
	for i := 0; i < cfg.RUUSize; i++ {
		s.capacity[i%s.banks]++
	}
	s.free = make([]int, s.banks)
	s.slab = make([]entry, cfg.RUUSize+1)
	s.freeEnt = make([]ref, 0, cfg.RUUSize)
	s.fifo = make([]ref, cfg.RUUSize)
	s.ready = make([][]ref, s.banks)
	s.commitAt = make([]int64, s.banks)
	s.memBanks = mem.NewBanks(cfg.MemBanks, cfg.MemLatency)
	return s, nil
}

func (s *ruuMachine) reset(numAddrs int) {
	s.pool.Reset()
	s.memBanks.Reset()
	copy(s.free, s.capacity)
	s.regProducer = [isa.NumRegs]ref{}
	s.regReadyAt = [isa.NumRegs]int64{}
	if cap(s.memProducer) < numAddrs {
		s.memProducer = make([]ref, numAddrs)
		s.memReadyAt = make([]int64, numAddrs)
	} else {
		s.memProducer = s.memProducer[:numAddrs]
		s.memReadyAt = s.memReadyAt[:numAddrs]
		clear(s.memProducer)
		clear(s.memReadyAt)
	}
	s.freeEnt = s.freeEnt[:0]
	for r := ref(len(s.slab) - 1); r > 0; r-- {
		s.freeEnt = append(s.freeEnt, r)
	}
	s.fifoHead, s.fifoTail, s.fifoLen = 0, 0, 0
	for i := range s.ready {
		s.ready[i] = s.ready[i][:0]
		s.commitAt[i] = -1
	}
	s.broadcasts.reset()
	s.results.Reset()
}

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
		e := &s.slab[s.fifo[(s.fifoHead+i)%len(s.fifo)]]
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

// RunChecked simulates t under the limits. The machine steps cycle by
// cycle, so all three checks apply: cycle budget, no-forward-progress
// watchdog, and wall-clock deadline.
func (s *ruuMachine) RunChecked(t *trace.Trace, lim Limits) (Result, error) {
	return runChecked(s, t, lim)
}

func (s *ruuMachine) begin(t *trace.Trace, lim Limits) error {
	p, err := s.start(s.Name(), t, lim, scalarOnly, s.cfg.IssueUnits, s.cfg.RUUSize)
	if err != nil {
		return err
	}
	s.reset(p.NumAddrs)
	return nil
}

// advance steps cycles until one starts within IssueUnits ops of op
// at, where the issue stage could reach it.
func (s *ruuMachine) advance(at int) (Result, bool, error) {
	t, p, g := s.st.t, s.st.p, s.st.g
	var (
		pos       = s.st.pos      // next trace op to issue
		seq       = int64(pos)    // issue sequence counter
		seqBank   = pos % s.banks // seq mod s.banks: the bank instruction seq goes to
		issueGate = s.st.next     // no issue before this cycle (branch resolution)
		lastEvent = s.st.last
		stop      = at - s.cfg.IssueUnits + 1
	)
	bump := func(c int64) {
		if c > lastEvent {
			lastEvent = c
		}
	}
	// next advances the issue sequence past one instruction.
	next := func() {
		pos++
		seq++
		if seqBank++; seqBank == s.banks {
			seqBank = 0
		}
	}
	snapshot := s.snapshot

	for c := s.st.c; pos < len(t.Ops) || s.fifoLen > 0; c++ {
		if pos >= stop {
			s.st.pos, s.st.c, s.st.next, s.st.last, s.st.g = pos, c, issueGate, lastEvent, g
			return Result{}, false, nil
		}
		if err := g.Stalled(c, int64(pos), snapshot); err != nil {
			return Result{}, false, err
		}
		if err := g.Over(max(c, lastEvent), int64(pos)); err != nil {
			return Result{}, false, err
		}
		if err := g.Tick(c, int64(pos)); err != nil {
			return Result{}, false, err
		}
		if s.probe != nil {
			s.probe.Occupancy(s.fifoLen, 1)
		}
		// 1. Results returning this cycle: mark done, wake waiters.
		for _, r := range s.broadcasts.take(c) {
			e := &s.slab[r]
			e.done = true
			if s.probe != nil {
				s.probe.Writeback(c, e.unit, e.lat)
			}
			if s.rec != nil {
				s.rec.RecordWriteback(e.op.Seq, c, e.unit)
			}
			bump(c)
			g.Progress(c)
			if e.flags.Has(trace.FlagHasDst) && s.regProducer[e.op.Dst] == r {
				s.regProducer[e.op.Dst] = 0
				s.regReadyAt[e.op.Dst] = c
			}
			if e.flags.Has(trace.FlagStore) && s.memProducer[e.addrID] == r {
				s.memProducer[e.addrID] = 0
				s.memReadyAt[e.addrID] = c
			}
			// A waiter issued in an earlier cycle than this one (it
			// found e in flight), so its last operand makes it ready
			// now, in time for this cycle's dispatch.
			for _, wr := range e.waiters {
				w := &s.slab[wr]
				w.depCount--
				if w.depCount == 0 {
					w.readyAt = c
					s.insertReady(wr)
				}
			}
			e.waiters = e.waiters[:0]
		}

		// 2. Commit from the head, in program order, one per
		// commit-bus domain per cycle: one per bank on N-Bus, whose
		// heads rotate banks, and one in all on 1-Bus, which has a
		// single bank.
		for s.fifoLen > 0 {
			headRef := s.fifo[s.fifoHead]
			head := &s.slab[headRef]
			if !head.done || s.commitAt[head.bank] == c {
				break
			}
			s.commitAt[head.bank] = c
			if s.rec != nil {
				s.rec.RecordCommit(head.op.Seq, c)
			}
			s.free[head.bank]++
			if s.fifoHead++; s.fifoHead == len(s.fifo) {
				s.fifoHead = 0
			}
			s.fifoLen--
			s.freeEnt = append(s.freeEnt, headRef) // recycle the slot
			bump(c)
			g.Progress(c)
		}

		// 3. Dispatch ready entries, oldest first, one per dispatch-
		// bus domain per cycle, subject to functional-unit acceptance
		// and a free result slot at completion.
		for b, ready := range s.ready {
			if len(ready) == 0 {
				continue
			}
			if done, ok := s.dispatchBank(b, c); ok {
				bump(done)
				g.Progress(c)
			}
		}

		// 4. Issue up to N instructions into the RUU, in program
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
						next()
						continue
					}
					a0 := int64(0)
					if po.Flags.Has(trace.FlagConditional) {
						if s.regProducer[isa.A0] != 0 {
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
					next()
					break // nothing issues past an unresolved branch
				}

				bank := seqBank
				if s.free[bank] == 0 {
					stallReason = probe.ReasonBufferFull
					break // RUU (bank) full: in-order issue stalls
				}
				issuedNow++
				s.free[bank]--
				r := s.freeEnt[len(s.freeEnt)-1]
				s.freeEnt = s.freeEnt[:len(s.freeEnt)-1]
				e := &s.slab[r]
				// Field-wise reinitialization (not a struct literal):
				// the literal compiles to a full-size copy on every
				// issued instruction, and this is the hottest store in
				// the simulator.
				e.seq, e.op, e.flags, e.addrID = seq, op, po.Flags, po.AddrID
				e.unit, e.bank, e.lat = op.Unit, bank, int64(s.pool.Latency(op.Unit))
				if s.rec != nil {
					s.rec.RecordAlloc(op.Seq, c)
					s.rec.RecordIssue(op.Seq, c)
				}
				e.depCount, e.readyAt = 0, 0
				e.waiters = e.waiters[:0] // keep the recycled capacity
				e.dispatched, e.done = false, false
				next()
				s.fifo[s.fifoTail] = r
				if s.fifoTail++; s.fifoTail == len(s.fifo) {
					s.fifoTail = 0
				}
				s.fifoLen++

				for _, reg := range po.Reads() {
					if prod := s.regProducer[reg]; prod != 0 {
						s.slab[prod].waiters = append(s.slab[prod].waiters, r)
						e.depCount++
					} else if s.regReadyAt[reg] > e.readyAt {
						e.readyAt = s.regReadyAt[reg]
					}
				}
				if po.Flags.Has(trace.FlagMemory) {
					if prod := s.memProducer[po.AddrID]; prod != 0 {
						s.slab[prod].waiters = append(s.slab[prod].waiters, r)
						e.depCount++
					} else if d := s.memReadyAt[po.AddrID]; d > e.readyAt {
						e.readyAt = d
					}
				}
				if po.Flags.Has(trace.FlagHasDst) {
					s.regProducer[op.Dst] = r
				}
				if po.Flags.Has(trace.FlagStore) {
					s.memProducer[po.AddrID] = r
				}
				if e.depCount == 0 {
					// Every available operand returned by this cycle,
					// so the entry is ready from the next: it joins its
					// ready list after this cycle's dispatch.
					e.readyAt = c + 1
					s.insertReady(r)
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
	s.st.pos, s.st.next, s.st.last = pos, issueGate, lastEvent
	return s.finish()
}

// insertReady files entry r in its bank's age-ordered ready list.
// Arrivals come nearly in age order, so the search runs from the
// tail.
func (s *ruuMachine) insertReady(r ref) {
	e := &s.slab[r]
	l := append(s.ready[e.bank], r)
	i := len(l) - 1
	for ; i > 0 && s.slab[l[i-1]].seq > e.seq; i-- {
		l[i] = l[i-1]
	}
	l[i] = r
	s.ready[e.bank] = l
}

// dispatchBank sends the oldest ready entry of bank b that passes the
// structural checks (unit free, memory bank free, result slot free at
// completion) to the functional units at cycle c. It reports the
// completion cycle and whether it dispatched one; the entries it
// passes over stay queued in place.
func (s *ruuMachine) dispatchBank(b int, c int64) (int64, bool) {
	ready := s.ready[b]
	for i, r := range ready {
		e := &s.slab[r]
		if s.pool.EarliestAccept(e.unit, c) > c {
			continue
		}
		isMem := e.flags.Has(trace.FlagMemory)
		if isMem && s.memBanks.EarliestAccept(e.op.Addr, c) > c {
			continue
		}
		done := c + e.lat
		needsBus := e.flags.Has(trace.FlagHasDst)
		if needsBus && !s.results.Free(b, done) {
			continue
		}
		s.pool.Accept(e.unit, c)
		if isMem {
			s.memBanks.Accept(e.op.Addr, c)
		}
		e.dispatched = true
		if s.rec != nil {
			s.rec.RecordExec(e.op.Seq, c, e.unit, done-c)
		}
		if needsBus {
			if s.rec != nil {
				s.rec.RecordResultBus(e.op.Seq, done, b)
			}
			s.results.Reserve(b, done)
		}
		// Stores complete without a register result; the entry is
		// committable at completion either way.
		s.broadcasts.add(done, r)
		for ; i < len(ready)-1; i++ {
			ready[i] = ready[i+1]
		}
		s.ready[b] = ready[:i]
		return done, true
	}
	return 0, false
}
