package core

import (
	"fmt"
	"math"

	"mfup/internal/bus"
	"mfup/internal/fu"
	"mfup/internal/mem"
	"mfup/internal/probe"
	"mfup/internal/regfile"
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
	lifecycle
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
		lifecycle: lifecycle{cfg: cfg},
		pool:      pool,
		bt:        bt,
		banks:     mem.NewBanks(cfg.MemBanks, cfg.MemLatency),
		issuedAt:  make([]int64, w),
		issued:    make([]bool, w),
		blockers:  make([]int, w),
		reasons:   make([]probe.Reason, w),
	}, nil
}

func (m *multiIssueOOO) Name() string {
	return fmt.Sprintf("MultiIssueOOO(%d,%s)", m.cfg.IssueUnits, m.cfg.Bus)
}

// RunChecked simulates t under the limits. The issue scan runs cycle
// by cycle within each instruction buffer, jumping over cycles in
// which nothing can issue unless a probe is attached (Guard.Jump keeps
// the limits' errors at the cycles stepping would report), so the
// stall watchdog applies here: a buffer in which nothing can ever
// issue would otherwise spin the scan forever.
func (m *multiIssueOOO) RunChecked(t *trace.Trace, lim Limits) (Result, error) {
	return runChecked(m, t, lim)
}

func (m *multiIssueOOO) begin(t *trace.Trace, lim Limits) error {
	w := m.cfg.IssueUnits
	p, err := m.start(m.Name(), t, lim, scalarOnly, w, w)
	if err != nil {
		return err
	}
	m.pool.Reset()
	m.sb.Reset()
	m.bt.Reset()
	m.mem.Reset(p.NumAddrs)
	m.banks.Reset()
	return nil
}

// advance runs buffer by buffer until the next buffer could reach op
// at: its fetch reads the ops it holds, and its end asks whether the
// op after it exists.
//
// Each buffer is scanned cycle by cycle. With a probe attached, every
// cycle files its slot ledger: each station's slot is an issue, the
// attributed stall of one unissued entry, or idle. Otherwise, after a
// cycle in which nothing issues no state has changed, so every check
// that refused an entry keeps refusing it until the cycle that check
// returned, and the scan jumps straight to the earliest such cycle. A
// probed scan cannot jump: inside a skipped span a stall's reason can
// change (a source turns ready while its unit still refuses). The
// event recorder files nothing per cycle, so it rides either scan.
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

	// reasons[i] is the stall reason filed for the i-th buffer entry
	// during the current scan cycle; nil when unprobed. The machine is
	// cycle-stepped, so stalls are reported directly per cycle rather
	// than through a probe.Account.
	var reasons []probe.Reason
	if m.probe != nil {
		reasons = m.reasons
	}
	observed := m.probe != nil || m.rec != nil

	// The run pauses before the first buffer that could reach op at.
	pos, stop := m.st.pos, min(len(t.Ops), at-w)
	for pos < stop {
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
		if m.rec != nil {
			recordFetch(m.rec, t, pos, end, nextFetch)
		}

		remaining := size
		maxIssue := nextFetch
		// brGate is the resolution time of the latest issued branch in
		// this buffer; instructions younger than that branch may not
		// issue earlier (no speculation).
		var brGate int64
		brGateIdx := -1 // buffer index of that branch
		oldest := 0     // buffer index of the oldest unissued entry

		// wake is the earliest cycle at which a check that refused an
		// entry this cycle returns, over the entries the scan reached.
		// An entry refused only by the result bus may pass on the very
		// next cycle; one held back by an older unissued entry moves
		// only after another issues.
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
			if reasons != nil {
				m.probe.Occupancy(remaining, 1)
				// Default every unissued entry to a branch stall: the
				// brGate break below skips entries without visiting
				// them, and those wait on the issued branch.
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
				if i > brGateIdx && brGate > c {
					// Waiting on an earlier branch's resolution; so is
					// everything younger.
					wake = min(wake, brGate)
					break
				}
				po := &p.Ops[pos+i]
				isBranch := po.Flags.Has(trace.FlagBranch)
				if blockers[i] > 0 {
					// A hazard against an older unissued entry.
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
				op := &t.Ops[pos+i]
				if !(isBranch && m.cfg.PerfectBranches) {
					if e := m.sb.EarliestFor(c, op.Dst, po.Reads()...); e > c {
						wake = min(wake, e)
						if reasons != nil {
							reasons[i] = m.registerReason(po, c)
						}
						continue
					}
				}
				if e := m.pool.EarliestAccept(op.Unit, c); e > c {
					wake = min(wake, e)
					if reasons != nil {
						reasons[i] = probe.ReasonStructFU
					}
					continue
				}
				if po.Flags.Has(trace.FlagLoad) {
					if e := m.mem.EarliestLoad(po.AddrID, c); e > c {
						wake = min(wake, e)
						if reasons != nil {
							reasons[i] = probe.ReasonRAW
						}
						continue
					}
				}
				if po.Flags.Has(trace.FlagMemory) {
					if e := m.banks.EarliestAccept(op.Addr, c); e > c {
						wake = min(wake, e)
						if reasons != nil {
							reasons[i] = probe.ReasonMemBank
						}
						continue
					}
				}
				if usesResultBus(op) && !m.bt.Free(i, c+int64(m.pool.Latency(op.Unit))) {
					wake = c + 1
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
				if observed {
					observeIssue(m.probe, m.rec, op, i, c, done)
					if isBranch {
						resolved := done
						if !m.cfg.PerfectBranches {
							resolved = c + brLat
						}
						observeResolve(m.probe, m.rec, op, resolved)
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
					return Result{}, false, err
				}
				if isBranch && !m.cfg.PerfectBranches {
					brGate = c + brLat
					brGateIdx = i
				}
			}
			if reasons != nil {
				m.closeLedger(c, before-remaining, remaining, size)
				c++
			} else if remaining < before {
				c++
			} else {
				c = g.Jump(c, wake)
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
	m.st.pos, m.st.next, m.st.last, m.st.g = pos, nextFetch, lastDone, g
	if pos < len(t.Ops) {
		return Result{}, false, nil
	}
	return m.finish()
}

// registerReason names why the register check refused an entry at
// cycle c: a waiting source is a RAW stall; otherwise the reserved
// destination (WAW) held it back.
func (m *multiIssueOOO) registerReason(po *trace.PreparedOp, c int64) probe.Reason {
	for _, r := range po.Reads() {
		if r.Valid() && m.sb.ReadyAt(r) > c {
			return probe.ReasonRAW
		}
	}
	return probe.ReasonWAW
}

// closeLedger closes cycle c's slot ledger for a buffer of size
// entries: the issued entries, one stall per still-unissued entry under
// the reason the scan filed, and the stations the short buffer leaves
// empty.
func (m *multiIssueOOO) closeLedger(c int64, issuedNow, remaining, size int) {
	if issuedNow > 0 {
		m.probe.Issue(c, int64(issuedNow))
	}
	for i := 0; i < size; i++ {
		if !m.issued[i] {
			m.probe.Stall(c, m.reasons[i], 1)
		}
	}
	if idle := int64(m.cfg.IssueUnits-issuedNow) - int64(remaining); idle > 0 {
		m.probe.Stall(c, probe.ReasonIssueWidth, idle)
	}
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

func (m *multiIssueOOO) units() *fu.Pool { return m.pool }

func (m *multiIssueOOO) spare() forker { return spareOf(NewMultiIssueOOO(m.cfg)) }

func (m *multiIssueOOO) fork(src forker, t *trace.Trace, p probe.Probe) {
	s := src.(*multiIssueOOO)
	m.pool.CopyFrom(s.pool)
	m.sb = s.sb
	m.bt.CopyFrom(s.bt)
	m.mem.copyFrom(&s.mem, t.Prepared().NumAddrs)
	m.banks.CopyFrom(s.banks)
	m.resume(&s.lifecycle, t, p)
}
