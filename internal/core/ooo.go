package core

import (
	"fmt"
	"math"

	"mfup/internal/bus"
	"mfup/internal/events"
	"mfup/internal/fu"
	"mfup/internal/mem"
	"mfup/internal/probe"
	"mfup/internal/regfile"
	"mfup/internal/simerr"
	"mfup/internal/trace"
)

// multiIssueOOO implements §5.2: N issue stations with out-of-order
// issue within the instruction buffer.
//
// A blocked instruction no longer stops its successors: any
// instruction in the buffer may issue, provided it has no RAW or WAW
// hazard against an *earlier unissued* instruction in the buffer (a
// hazard against an issued instruction is simply a wait for its
// result). As in §5.1, the buffer refills only when empty, which the
// paper identifies as the source of the sawtooth in Tables 5 and 6.
//
// There is no speculation: a branch issues only once it is the oldest
// unissued instruction, and no younger instruction issues until the
// branch resolves.
type multiIssueOOO struct {
	cfg   Config
	pool  *fu.Pool
	sb    regfile.Scoreboard
	bt    *bus.Tracker
	mem   memScoreboard
	banks *mem.Banks

	// The buffer scan's per-entry state, w entries each: whether and
	// when each entry issued, how many older entries hold it back, and
	// (probed) why it waited this cycle. Dead between buffers.
	issuedAt []int64
	issued   []bool
	blockers []int
	reasons  []probe.Reason

	st    run
	probe probe.Probe
	rec   *events.Recorder
}

// NewMultiIssueOOO builds the §5.2 machine: cfg.IssueUnits stations
// (>= 1) issuing out of order within the instruction buffer. It
// reports an invalid configuration as an error.
func NewMultiIssueOOO(cfg Config) (Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.IssueUnits < 1 {
		return nil, fmt.Errorf("core: MultiIssueOOO needs IssueUnits >= 1, got %d", cfg.IssueUnits)
	}
	bt, err := cfg.newBusTracker()
	if err != nil {
		return nil, err
	}
	pool := cfg.newPool()
	pool.SegmentAll()
	w := cfg.IssueUnits
	return &multiIssueOOO{
		cfg:      cfg,
		pool:     pool,
		bt:       bt,
		banks:    mem.NewBanks(cfg.MemBanks, cfg.MemLatency),
		issuedAt: make([]int64, w),
		issued:   make([]bool, w),
		blockers: make([]int, w),
		reasons:  make([]probe.Reason, w),
	}, nil
}

func (m *multiIssueOOO) Name() string {
	return fmt.Sprintf("MultiIssueOOO(%d,%s)", m.cfg.IssueUnits, m.cfg.Bus)
}

func (m *multiIssueOOO) SetProbe(p probe.Probe) { m.probe = p }

func (m *multiIssueOOO) SetRecorder(r *events.Recorder) { m.rec = r }

// RunChecked simulates t under the limits. The issue scan runs cycle
// by cycle within each instruction buffer, jumping over cycles in
// which nothing can issue (Guard.Jump keeps the limits' errors at the
// cycles stepping would report), so the stall watchdog applies here: a
// buffer in which nothing can ever issue would otherwise spin the scan
// forever.
func (m *multiIssueOOO) RunChecked(t *trace.Trace, lim Limits) (Result, error) {
	if err := m.begin(t, lim); err != nil {
		return Result{}, err
	}
	r, _, err := m.advance(noPause)
	return r, err
}

func (m *multiIssueOOO) begin(t *trace.Trace, lim Limits) error {
	p := t.Prepared()
	if err := scalarOnly(m.Name(), p); err != nil {
		return err
	}
	m.pool.Reset()
	m.sb.Reset()
	m.bt.Reset()
	m.mem.Reset(p.NumAddrs)
	m.banks.Reset()
	m.st = run{t: t, p: p, g: newGuard(m.Name(), t.Name, lim)}
	w := m.cfg.IssueUnits
	if m.probe != nil {
		m.probe.Begin(m.Name(), t.Name, w, w)
	}
	if m.rec != nil {
		m.rec.Begin(m.Name(), t.Name, w)
	}
	return nil
}

// advance runs buffer by buffer until the next buffer could reach op
// at: its fetch reads the ops it holds, and its end asks whether the
// op after it exists.
func (m *multiIssueOOO) advance(at int) (Result, bool, error) {
	t, p, g := m.st.t, m.st.p, m.st.g
	w := m.cfg.IssueUnits
	brLat := int64(m.cfg.BranchLatency)

	var (
		nextFetch = m.st.next
		lastDone  = m.st.last
		issuedAt  = m.issuedAt
		issued    = m.issued
		blockers  = m.blockers
	)

	// reasons[i] is the stall reason recorded for the i-th buffer entry
	// during the current scan cycle; nil when unprobed. The machine is
	// cycle-stepped, so stalls are reported directly per cycle rather
	// than through a probe.Account.
	var reasons []probe.Reason
	if m.probe != nil {
		reasons = m.reasons
	}

	pos := m.st.pos
	for pos < len(t.Ops) {
		if pos >= at-w {
			m.st.pos, m.st.next, m.st.last, m.st.g = pos, nextFetch, lastDone, g
			return Result{}, false, nil
		}
		end := p.Window(pos, w)
		size := end - pos
		for i := 0; i < size; i++ {
			issued[i] = false
		}
		countBlockers(t, p, pos, size, blockers)
		snapshot := func(max int) []string {
			var snap []string
			for i := 0; i < size && len(snap) < max; i++ {
				if !issued[i] {
					snap = append(snap, t.Ops[pos+i].String())
				}
			}
			return snap
		}

		var maxIssue int64
		if m.probe != nil || m.rec != nil {
			// The observed copy of the buffer scan lives in its own
			// method so this loop carries no attribution or event
			// bookkeeping.
			mi, ld, err := m.scanBufferObserved(t, p, &g, pos, size, nextFetch, issued, issuedAt, blockers, snapshot, reasons, lastDone)
			if err != nil {
				return Result{}, false, err
			}
			maxIssue, lastDone = mi, ld
		} else {
			remaining := size
			maxIssue = nextFetch
			// brGate is the resolution time of the latest issued branch in
			// this buffer; instructions younger than that branch may not
			// issue earlier (no speculation).
			var brGate int64
			brGateIdx := -1 // buffer index of that branch
			oldest := 0     // buffer index of the oldest unissued entry

			// In a cycle in which nothing issues no state changes, so
			// every check that refused an entry keeps refusing it until
			// the cycle that check returned: wake is the earliest such
			// cycle over the entries the scan reached, and the scan
			// jumps straight to it. An entry refused only by the result
			// bus may pass on the very next cycle; one held back by an
			// older unissued entry moves only after another issues.
			for c := nextFetch; remaining > 0; {
				if err := g.Stalled(c, int64(pos), snapshot); err != nil {
					return Result{}, false, err
				}
				if err := g.Over(c, int64(pos)); err != nil {
					return Result{}, false, err
				}
				if err := g.Tick(c, int64(pos)); err != nil {
					return Result{}, false, err
				}
				wake := int64(math.MaxInt64)
				before := remaining
				for i := oldest; i < size; i++ {
					if issued[i] {
						continue
					}
					if i > brGateIdx && brGate > c {
						// Waiting on an earlier branch's resolution; so is
						// everything younger.
						wake = min(wake, brGate)
						break
					}
					// An older unissued entry holds this one back, or
					// this is a branch with older entries still to go:
					// a branch issues only as the oldest unissued
					// instruction.
					po := &p.Ops[pos+i]
					isBranch := po.Flags.Has(trace.FlagBranch)
					if blockers[i] > 0 || (isBranch && i != oldest) {
						continue
					}

					// Resource checks: everything must be satisfiable at
					// exactly cycle c, else the instruction waits.
					op := &t.Ops[pos+i]
					if !(isBranch && m.cfg.PerfectBranches) {
						if e := m.sb.EarliestFor(c, op.Dst, po.Reads()...); e > c {
							wake = min(wake, e)
							continue
						}
					}
					if e := m.pool.EarliestAccept(op.Unit, c); e > c {
						wake = min(wake, e)
						continue
					}
					if po.Flags.Has(trace.FlagLoad) {
						if e := m.mem.EarliestLoad(po.AddrID, c); e > c {
							wake = min(wake, e)
							continue
						}
					}
					if po.Flags.Has(trace.FlagMemory) {
						if e := m.banks.EarliestAccept(op.Addr, c); e > c {
							wake = min(wake, e)
							continue
						}
					}
					if usesResultBus(op) && !m.bt.Free(i, c+int64(m.pool.Latency(op.Unit))) {
						wake = c + 1
						continue
					}

					var done int64
					if isBranch && m.cfg.PerfectBranches {
						done = c + 1
					} else {
						done = m.pool.Accept(op.Unit, c)
					}
					if po.Flags.Has(trace.FlagMemory) {
						m.banks.Accept(op.Addr, c)
					}
					if usesResultBus(op) {
						m.bt.Reserve(i, done)
					}
					if po.Flags.Has(trace.FlagHasDst) {
						m.sb.SetReady(op.Dst, done)
					}
					if po.Flags.Has(trace.FlagStore) {
						m.mem.Store(po.AddrID, done)
					}
					issued[i] = true
					issuedAt[i] = c
					remaining--
					releaseBlockers(t, p, pos, i, size, blockers)
					for oldest < size && issued[oldest] {
						oldest++
					}
					g.Progress(c)
					if c > maxIssue {
						maxIssue = c
					}
					if done > lastDone {
						lastDone = done
					}
					if err := g.Over(lastDone, int64(pos+i)); err != nil {
						return Result{}, false, err
					}
					if isBranch && !m.cfg.PerfectBranches {
						brGate = c + brLat
						brGateIdx = i
					}
				}
				if remaining < before {
					c++
				} else {
					c = g.Jump(c, wake)
				}
			}
		}

		// Refill only once the buffer is empty; a terminating branch
		// additionally delays the refetch until it resolves.
		nextFetch = maxIssue + 1
		if p.Ops[end-1].Flags.Has(trace.FlagBranch) && !m.cfg.PerfectBranches {
			if g := issuedAt[size-1] + brLat; g > nextFetch {
				nextFetch = g
			}
		}
		if m.probe != nil && end < len(t.Ops) && nextFetch > maxIssue+1 {
			// The terminating branch's shadow delays the refetch past
			// the empty-buffer point: whole cycles with no buffer to
			// scan, all of them the branch's fault. (After the final
			// buffer the remainder is drain, derived by Counters.)
			m.probe.Stall(maxIssue+1, probe.ReasonBranch, (nextFetch-maxIssue-1)*int64(w))
		}
		pos = end
	}
	m.st.pos, m.st.next, m.st.last = pos, nextFetch, lastDone
	if m.probe != nil {
		m.probe.End(lastDone)
	}
	if m.rec != nil {
		m.rec.End(lastDone)
	}
	return m.st.result(), true, nil
}

// scanBufferObserved is the observed copy of the buffer scan in
// RunChecked, issuing entries cycle by cycle while filing every issue
// slot with the probe (an Issue, exactly one attributed Stall, or an
// idle station) and every lifecycle event with the recorder; either
// observer may be nil, not both — reasons is non-nil exactly when the
// probe is. The duplication is deliberate — the unobserved loop in
// RunChecked carries no attribution or event bookkeeping, which keeps
// the nil path fast, and it jumps over idle cycles, which this copy
// must visit: a stall's reason can change inside an idle span. Both loops take the buffer's hazards from the
// same blocker counts (countBlockers, releaseBlockers) and must stay
// cycle-identical: any timing change goes into both copies, and the
// probe and trace invariant tests and testdata/machines.golden
// compare their cycle counts.
func (m *multiIssueOOO) scanBufferObserved(t *trace.Trace, p *trace.Prepared, g *simerr.Guard, pos, size int, nextFetch int64, issued []bool, issuedAt []int64, blockers []int, snapshot func(int) []string, reasons []probe.Reason, lastDone int64) (int64, int64, error) {
	w := m.cfg.IssueUnits
	brLat := int64(m.cfg.BranchLatency)

	if m.rec != nil {
		// The whole buffer arrives together, at the refill cycle.
		for i := 0; i < size; i++ {
			m.rec.RecordFetch(t.Ops[pos+i].Seq, nextFetch, i)
		}
	}

	remaining := size
	maxIssue := nextFetch
	// brGate is the resolution time of the latest issued branch in
	// this buffer; instructions younger than that branch may not
	// issue earlier (no speculation).
	var brGate int64
	brGateIdx := -1 // buffer index of that branch
	oldest := 0     // buffer index of the oldest unissued entry

	for c := nextFetch; remaining > 0; c++ {
		if err := g.Stalled(c, int64(pos), snapshot); err != nil {
			return 0, 0, err
		}
		if err := g.Over(c, int64(pos)); err != nil {
			return 0, 0, err
		}
		if err := g.Tick(c, int64(pos)); err != nil {
			return 0, 0, err
		}
		remStart := remaining
		if m.probe != nil {
			m.probe.Occupancy(remaining, 1)
			// Default every unissued entry to a branch stall: the brGate
			// break below skips entries without visiting them, and those
			// wait on the issued branch.
			for i := 0; i < size; i++ {
				if !issued[i] {
					reasons[i] = probe.ReasonBranch
				}
			}
		}
		for i := oldest; i < size; i++ {
			if issued[i] {
				continue
			}
			op := &t.Ops[pos+i]
			po := &p.Ops[pos+i]
			isBranch := po.Flags.Has(trace.FlagBranch)
			reads := po.Reads()

			if i > brGateIdx && brGate > c {
				// Waiting on an earlier branch's resolution; so is
				// everything younger.
				break
			}

			// Hazards against earlier unissued buffer entries.
			if blockers[i] > 0 {
				if reasons != nil {
					reasons[i] = m.hazardReason(t, p, pos, i, issued)
				}
				continue
			}
			if isBranch && i != oldest {
				// A branch issues only as the oldest unissued
				// instruction: everything before it must be gone.
				if reasons != nil {
					reasons[i] = probe.ReasonBranch
				}
				continue
			}

			// Resource checks: everything must be satisfiable at
			// exactly cycle c, else the instruction waits.
			if !(isBranch && m.cfg.PerfectBranches) &&
				m.sb.EarliestFor(c, op.Dst, reads...) > c {
				// A waiting source is a RAW stall; otherwise the
				// reserved destination (WAW) held it back.
				if reasons != nil {
					reasons[i] = probe.ReasonWAW
					for _, r := range reads {
						if r.Valid() && m.sb.ReadyAt(r) > c {
							reasons[i] = probe.ReasonRAW
							break
						}
					}
				}
				continue
			}
			if m.pool.EarliestAccept(op.Unit, c) > c {
				if reasons != nil {
					reasons[i] = probe.ReasonStructFU
				}
				continue
			}
			if po.Flags.Has(trace.FlagLoad) && m.mem.EarliestLoad(po.AddrID, c) > c {
				if reasons != nil {
					reasons[i] = probe.ReasonRAW
				}
				continue
			}
			if po.Flags.Has(trace.FlagMemory) && m.banks.EarliestAccept(op.Addr, c) > c {
				if reasons != nil {
					reasons[i] = probe.ReasonMemBank
				}
				continue
			}
			if usesResultBus(op) && !m.bt.Free(i, c+int64(m.pool.Latency(op.Unit))) {
				if reasons != nil {
					reasons[i] = probe.ReasonResultBus
				}
				continue
			}

			var done int64
			if isBranch && m.cfg.PerfectBranches {
				done = c + 1
			} else {
				done = m.pool.Accept(op.Unit, c)
			}
			if po.Flags.Has(trace.FlagMemory) {
				m.banks.Accept(op.Addr, c)
			}
			if usesResultBus(op) {
				m.bt.Reserve(i, done)
			}
			if po.Flags.Has(trace.FlagHasDst) {
				m.sb.SetReady(op.Dst, done)
			}
			if po.Flags.Has(trace.FlagStore) {
				m.mem.Store(po.AddrID, done)
			}
			issued[i] = true
			issuedAt[i] = c
			remaining--
			releaseBlockers(t, p, pos, i, size, blockers)
			for oldest < size && issued[oldest] {
				oldest++
			}
			if m.probe != nil {
				m.probe.Writeback(done, op.Unit, done-c)
				if isBranch {
					if m.cfg.PerfectBranches {
						m.probe.BranchResolve(done)
					} else {
						m.probe.BranchResolve(c + brLat)
					}
				}
			}
			if m.rec != nil {
				m.rec.RecordIssue(op.Seq, c)
				m.rec.RecordExec(op.Seq, c, op.Unit, done-c)
				if usesResultBus(op) {
					m.rec.RecordResultBus(op.Seq, done, i)
				}
				m.rec.RecordWriteback(op.Seq, done, op.Unit)
				if isBranch {
					if m.cfg.PerfectBranches {
						m.rec.RecordBranchResolve(op.Seq, done)
					} else {
						m.rec.RecordBranchResolve(op.Seq, c+brLat)
					}
				}
			}
			g.Progress(c)
			if c > maxIssue {
				maxIssue = c
			}
			if done > lastDone {
				lastDone = done
			}
			if err := g.Over(lastDone, int64(pos+i)); err != nil {
				return 0, 0, err
			}
			if isBranch && !m.cfg.PerfectBranches {
				brGate = c + brLat
				brGateIdx = i
			}
		}
		// Close the cycle's slot ledger: issues, one stall per
		// still-unissued entry, and the stations the short buffer
		// leaves empty.
		if m.probe != nil {
			issuedNow := remStart - remaining
			if issuedNow > 0 {
				m.probe.Issue(c, int64(issuedNow))
			}
			for i := 0; i < size; i++ {
				if !issued[i] {
					m.probe.Stall(c, reasons[i], 1)
				}
			}
			if idle := int64(w-issuedNow) - int64(remaining); idle > 0 {
				m.probe.Stall(c, probe.ReasonIssueWidth, idle)
			}
		}
	}
	return maxIssue, lastDone, nil
}

// holdsBack reports whether an older buffer entry (oj, with flags
// fj), while unissued, keeps the younger entry (oi, pi) from issuing:
// the older one is a branch, the younger rewrites (WAW) or reads (RAW)
// its destination, or it is a store to the address the younger loads
// or stores. The relation depends only on the two instructions, so it
// is fixed for the buffer's lifetime.
func holdsBack(oj *trace.Op, fj trace.OpFlags, oi *trace.Op, pi *trace.PreparedOp) bool {
	if fj.Has(trace.FlagBranch) {
		return true
	}
	if fj.Has(trace.FlagHasDst) {
		if oi.Dst == oj.Dst {
			return true
		}
		for _, r := range pi.Reads() {
			if r == oj.Dst {
				return true
			}
		}
	}
	return fj.Has(trace.FlagStore) && pi.Flags.Has(trace.FlagMemory) && oi.Addr == oj.Addr
}

// countBlockers sets blockers[i], for each entry of the buffer of size
// entries at pos, to the number of older entries that hold it back.
// Entry i may issue only once its count is zero; releaseBlockers
// lowers the counts as entries issue.
func countBlockers(t *trace.Trace, p *trace.Prepared, pos, size int, blockers []int) {
	for i := 0; i < size; i++ {
		oi, pi := &t.Ops[pos+i], &p.Ops[pos+i]
		n := 0
		for j := pos; j < pos+i; j++ {
			if holdsBack(&t.Ops[j], p.Ops[j].Flags, oi, pi) {
				n++
			}
		}
		blockers[i] = n
	}
}

// releaseBlockers lowers the blocker counts of the younger entries
// that buffer entry j, now issued, was holding back.
func releaseBlockers(t *trace.Trace, p *trace.Prepared, pos, j, size int, blockers []int) {
	oj, fj := &t.Ops[pos+j], p.Ops[pos+j].Flags
	for i := j + 1; i < size; i++ {
		if holdsBack(oj, fj, &t.Ops[pos+i], &p.Ops[pos+i]) {
			blockers[i]--
		}
	}
}

// hazardReason reruns entry i's buffer-hazard scan to name the first
// blocking dependence, mirroring holdsBack term for term.
// Classification lives here so the scan itself carries no per-entry
// attribution state.
func (m *multiIssueOOO) hazardReason(t *trace.Trace, p *trace.Prepared, pos, i int, issued []bool) probe.Reason {
	op := &t.Ops[pos+i]
	po := &p.Ops[pos+i]
	reads := po.Reads()
	for j := 0; j < i; j++ {
		if issued[j] {
			continue
		}
		pj := &t.Ops[pos+j]
		pf := p.Ops[pos+j].Flags
		if pf.Has(trace.FlagBranch) {
			return probe.ReasonBranch
		}
		if pf.Has(trace.FlagHasDst) {
			if op.Dst == pj.Dst {
				return probe.ReasonWAW
			}
			for _, r := range reads {
				if r == pj.Dst {
					return probe.ReasonRAW
				}
			}
		}
		if pf.Has(trace.FlagStore) && po.Flags.Has(trace.FlagMemory) && op.Addr == pj.Addr {
			return probe.ReasonRAW
		}
	}
	return probe.ReasonRAW
}

// machineConfig exposes the configuration to the extrapolation engine.
func (m *multiIssueOOO) machineConfig() Config { return m.cfg }

func (m *multiIssueOOO) units() *fu.Pool { return m.pool }

func (m *multiIssueOOO) state() *run { return &m.st }

func (m *multiIssueOOO) spare() forker { return spareOf(NewMultiIssueOOO(m.cfg)) }

func (m *multiIssueOOO) fork(src forker, t *trace.Trace, p probe.Probe) {
	s := src.(*multiIssueOOO)
	m.pool.CopyFrom(s.pool)
	m.sb = s.sb
	m.bt.CopyFrom(s.bt)
	m.mem.copyFrom(&s.mem, t.Prepared().NumAddrs)
	m.banks.CopyFrom(s.banks)
	m.st = s.st
	m.st.retarget(t, p)
	m.probe = p
}
