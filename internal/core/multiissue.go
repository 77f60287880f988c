package core

import (
	"fmt"

	"mfup/internal/bus"
	"mfup/internal/events"
	"mfup/internal/fu"
	"mfup/internal/mem"
	"mfup/internal/probe"
	"mfup/internal/regfile"
	"mfup/internal/trace"
)

// multiIssue implements §5.1: N issue stations with strictly
// sequential (in-order) instruction issue over CRAY-like functional
// units.
//
// The hardware fetches a block of N instructions into an instruction
// buffer; the issue stations examine the buffer in parallel, but if
// any instruction cannot issue, no later instruction may issue either.
// The buffer is refilled only after all of its instructions have
// issued — except that a taken branch abandons the rest of the buffer
// and refills from the target. Results return to the register file
// over the configured result-bus interconnect; an instruction whose
// result would find no free bus slot stalls at issue.
type multiIssue struct {
	lifecycle
	pool  *fu.Pool
	sb    regfile.Scoreboard
	bt    *bus.Tracker
	mem   memScoreboard
	banks *mem.Banks
}

// NewMultiIssue builds the §5.1 machine: cfg.IssueUnits stations
// (>= 1), cfg.Bus interconnect, CRAY-like (fully segmented) units and
// interleaved memory. It reports an invalid configuration as an error.
func NewMultiIssue(cfg Config) (Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.IssueUnits < 1 {
		return nil, fmt.Errorf("core: MultiIssue needs IssueUnits >= 1, got %d", cfg.IssueUnits)
	}
	bt, err := cfg.newBusTracker()
	if err != nil {
		return nil, err
	}
	pool := cfg.newPool()
	pool.SegmentAll()
	return &multiIssue{
		lifecycle: lifecycle{cfg: cfg},
		pool:      pool,
		bt:        bt,
		banks:     mem.NewBanks(cfg.MemBanks, cfg.MemLatency),
	}, nil
}

func (m *multiIssue) Name() string {
	return fmt.Sprintf("MultiIssue(%d,%s)", m.cfg.IssueUnits, m.cfg.Bus)
}

// usesResultBus reports whether an op delivers a register result over
// the interconnect. Branches and stores produce no register value.
func usesResultBus(op *trace.Op) bool { return op.Dst.Valid() }

// RunChecked simulates t under the limits; issue times are computed
// directly, so only the cycle budget and deadline apply.
func (m *multiIssue) RunChecked(t *trace.Trace, lim Limits) (Result, error) {
	return runChecked(m, t, lim)
}

func (m *multiIssue) begin(t *trace.Trace, lim Limits) error {
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

// advance issues buffer by buffer until the next buffer could reach op
// at: its fetch reads the ops it holds, and its end asks whether the op
// after it exists. It files every issue with the attached probe and
// event recorder, either or both of which may be nil.
func (m *multiIssue) advance(at int) (Result, bool, error) {
	t, p, g := m.st.t, m.st.p, m.st.g
	w := m.cfg.IssueUnits
	brLat := int64(m.cfg.BranchLatency)

	var acct *probe.Account
	if m.probe != nil {
		acct = &m.st.acct
	}
	observed := m.probe != nil || m.rec != nil

	var (
		nextFetch = m.st.next // earliest issue cycle for the next buffer
		lastDone  = m.st.last
	)

	// The run pauses before the first buffer that could reach op at.
	pos, stop := m.st.pos, min(len(t.Ops), at-w)
	for pos < stop {
		// Fetch a buffer: up to w ops, ending early at a taken branch
		// (the rest of the line is squashed and refetched from the
		// target).
		end := p.Window(pos, w)
		if m.rec != nil {
			recordFetch(m.rec, t, pos, end, nextFetch)
		}

		prev := nextFetch // in-order: issue times are nondecreasing
		for i := pos; i < end; i++ {
			op := &t.Ops[i]
			po := &p.Ops[i]
			isBranch := po.Flags.Has(trace.FlagBranch)
			station := i - pos

			e := prev
			if !(isBranch && m.cfg.PerfectBranches) {
				e = m.sb.EarliestFor(e, op.Dst, po.Reads()...)
			}
			e = m.pool.EarliestAccept(op.Unit, e)
			if po.Flags.Has(trace.FlagLoad) {
				e = m.mem.EarliestLoad(po.AddrID, e)
			}
			if po.Flags.Has(trace.FlagMemory) {
				e = m.banks.EarliestAccept(op.Addr, e)
			}
			if usesResultBus(op) {
				e = m.bt.EarliestIssue(station, e, m.pool.Latency(op.Unit))
			}
			if acct != nil {
				// Classified before any resource is claimed below, so the
				// replay sees the same state the chain above did.
				acct.Issue(e, m.issueReason(op, po, isBranch, station, prev))
			}
			var done int64
			if isBranch && m.cfg.PerfectBranches {
				done = e + 1
			} else {
				done = m.pool.Accept(op.Unit, e)
			}
			if po.Flags.Has(trace.FlagMemory) {
				m.banks.Accept(op.Addr, e)
			}
			if usesResultBus(op) {
				m.bt.Reserve(station, done)
			}
			if po.Flags.Has(trace.FlagHasDst) {
				m.sb.SetReady(op.Dst, done)
			}
			if po.Flags.Has(trace.FlagStore) {
				m.mem.Store(po.AddrID, done)
			}
			if observed {
				observeIssue(m.probe, m.rec, op, station, e, done)
			}
			if done > lastDone {
				lastDone = done
			}
			if err := g.Over(lastDone, int64(i)); err != nil {
				return Result{}, false, err
			}
			if err := g.Tick(lastDone, int64(i)); err != nil {
				return Result{}, false, err
			}

			if isBranch && m.cfg.PerfectBranches {
				prev = e
				nextFetch = e + 1
				if observed {
					observeResolve(m.probe, m.rec, op, done)
				}
			} else if isBranch {
				// No speculation: nothing issues — neither the rest
				// of this buffer nor the refill — until resolution.
				prev = e + brLat
				nextFetch = e + brLat
				if acct != nil {
					// The shadow holds the issue stage until then: its
					// slots are the branch's.
					acct.Advance(prev, probe.ReasonBranch)
				}
				if observed {
					observeResolve(m.probe, m.rec, op, prev)
				}
			} else {
				prev = e
				nextFetch = e + 1
			}
		}
		pos = end
		if acct != nil && pos < len(t.Ops) {
			// The buffer refills only once drained: the stations left
			// idle until the refill arrives are width-limit slots, not
			// hazard stalls. (After the final buffer the remainder is
			// the drain, which Counters derives itself.)
			acct.Advance(nextFetch, probe.ReasonIssueWidth)
		}
	}
	m.st.pos, m.st.next, m.st.last, m.st.g = pos, nextFetch, lastDone, g
	if pos < len(t.Ops) {
		return Result{}, false, nil
	}
	return m.finish()
}

// recordFetch files the fetch of ops pos to end with rec: the whole
// buffer arrives together, at the refill cycle at.
func recordFetch(rec *events.Recorder, t *trace.Trace, pos, end int, at int64) {
	for i := pos; i < end; i++ {
		rec.RecordFetch(t.Ops[i].Seq, at, i-pos)
	}
}

// observeIssue files op's issue from station at cycle e, its result
// due at done, with the observers p and rec, either of which may be
// nil. The probe's share of the issue itself is the machine's: an
// accountant's Issue, or the cycle's slot ledger.
func observeIssue(p probe.Probe, rec *events.Recorder, op *trace.Op, station int, e, done int64) {
	if p != nil {
		p.Writeback(done, op.Unit, done-e)
	}
	if rec != nil {
		rec.RecordIssue(op.Seq, e)
		rec.RecordExec(op.Seq, e, op.Unit, done-e)
		if usesResultBus(op) {
			rec.RecordResultBus(op.Seq, done, station)
		}
		rec.RecordWriteback(op.Seq, done, op.Unit)
	}
}

// observeResolve files branch op's resolution at cycle at with the
// observers p and rec, either of which may be nil.
func observeResolve(p probe.Probe, rec *events.Recorder, op *trace.Op, at int64) {
	if p != nil {
		p.BranchResolve(at)
	}
	if rec != nil {
		rec.RecordBranchResolve(op.Seq, at)
	}
}

// issueReason replays the issue-constraint chain from e to name the
// binding constraint — the last one to strictly raise the issue
// cycle. Term for term it is the max-form the Earliest* helpers
// compute, called before any resource is claimed, so it reproduces
// the loop's result exactly. Classification lives here, called only
// when a probe is attached, so an unprobed run does none of it.
func (m *multiIssue) issueReason(op *trace.Op, po *trace.PreparedOp, isBranch bool, station int, e int64) probe.Reason {
	reason := probe.ReasonIssueWidth
	if !(isBranch && m.cfg.PerfectBranches) {
		for _, r := range po.Reads() {
			if r.Valid() {
				if rdy := m.sb.ReadyAt(r); rdy > e {
					e, reason = rdy, probe.ReasonRAW
				}
			}
		}
		if op.Dst.Valid() {
			if rdy := m.sb.ReadyAt(op.Dst); rdy > e {
				e, reason = rdy, probe.ReasonWAW
			}
		}
	}
	if fe := m.pool.EarliestAccept(op.Unit, e); fe > e {
		e, reason = fe, probe.ReasonStructFU
	}
	if po.Flags.Has(trace.FlagLoad) {
		if me := m.mem.EarliestLoad(po.AddrID, e); me > e {
			// Memory-carried true dependence: the load waits on the
			// store producing its word.
			e, reason = me, probe.ReasonRAW
		}
	}
	if po.Flags.Has(trace.FlagMemory) {
		if be := m.banks.EarliestAccept(op.Addr, e); be > e {
			e, reason = be, probe.ReasonMemBank
		}
	}
	if usesResultBus(op) {
		if be := m.bt.EarliestIssue(station, e, m.pool.Latency(op.Unit)); be > e {
			reason = probe.ReasonResultBus
		}
	}
	return reason
}

func (m *multiIssue) units() *fu.Pool { return m.pool }

func (m *multiIssue) spare() forker { return spareOf(NewMultiIssue(m.cfg)) }

func (m *multiIssue) fork(src forker, t *trace.Trace, p probe.Probe) {
	s := src.(*multiIssue)
	m.pool.CopyFrom(s.pool)
	m.sb = s.sb
	m.bt.CopyFrom(s.bt)
	m.mem.copyFrom(&s.mem, t.Prepared().NumAddrs)
	m.banks.CopyFrom(s.banks)
	m.resume(&s.lifecycle, t, p)
}
