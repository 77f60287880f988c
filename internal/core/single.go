package core

import (
	"fmt"

	"mfup/internal/fu"
	"mfup/internal/isa"
	"mfup/internal/mem"
	"mfup/internal/probe"
	"mfup/internal/regfile"
	"mfup/internal/trace"
)

// singleIssue implements the four basic machine organizations of §3.
// They share one issue discipline — in-order, one instruction per
// cycle at most, blocking on RAW/WAW hazards and unit occupancy — and
// differ only in how much the execution stage can overlap:
//
//	Simple        no overlap: execution is exclusive
//	SerialMemory  overlap across distinct units; every unit serial
//	NonSegmented  as above, with interleaved (pipelined) memory
//	CRAYLike      interleaved memory and fully segmented units
type singleIssue struct {
	lifecycle
	name      string
	org       Organization
	exclusive bool // Simple machine: one instruction in execution

	pool  *fu.Pool
	sb    regfile.Scoreboard
	mem   memScoreboard
	banks *mem.Banks
}

// Organization selects one of the four basic machines of §3, in
// increasing order of execution overlap.
type Organization uint8

// The §3 machine organizations.
const (
	Simple Organization = iota
	SerialMemory
	NonSegmented
	CRAYLike
)

// String names the organization as Table 1 does.
func (o Organization) String() string {
	switch o {
	case Simple:
		return "Simple"
	case SerialMemory:
		return "SerialMemory"
	case NonSegmented:
		return "NonSegmented"
	case CRAYLike:
		return "CRAY-like"
	}
	return "Organization(?)"
}

// Organizations returns the §3 machines in Table 1 order.
func Organizations() []Organization {
	return []Organization{Simple, SerialMemory, NonSegmented, CRAYLike}
}

// NewBasic builds one of the four basic single-issue machines of §3.
// It reports an invalid configuration or organization as an error.
func NewBasic(o Organization, cfg Config) (Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if o > CRAYLike {
		return nil, fmt.Errorf("core: unknown organization %d", o)
	}
	pool := cfg.newPool()
	switch o {
	case Simple, SerialMemory:
		// Every unit serial. (For Simple the setting is moot: the
		// execution stage itself is exclusive.)
	case NonSegmented:
		pool.SetSegmented(isa.Memory, true)
	case CRAYLike:
		pool.SegmentAll()
	}
	banks := 0
	if o == NonSegmented || o == CRAYLike {
		banks = cfg.MemBanks // serial-memory machines have no banking to model
	}
	return &singleIssue{
		lifecycle: lifecycle{cfg: cfg},
		name:      o.String(),
		org:       o,
		exclusive: o == Simple,
		pool:      pool,
		banks:     mem.NewBanks(banks, cfg.MemLatency),
	}, nil
}

func (m *singleIssue) Name() string { return m.name }

// RunChecked simulates t under the limits. Issue times are computed
// directly (the machine cannot stall), so only the cycle budget and
// deadline apply.
func (m *singleIssue) RunChecked(t *trace.Trace, lim Limits) (Result, error) {
	return runChecked(m, t, lim)
}

func (m *singleIssue) begin(t *trace.Trace, lim Limits) error {
	p, err := m.start(m.name, t, lim, scalarOnly, 1, 0)
	if err != nil {
		return err
	}
	m.pool.Reset()
	m.sb.Reset()
	m.mem.Reset(p.NumAddrs)
	m.banks.Reset()
	return nil
}

// advance issues ops up to op at, one op at a time.
func (m *singleIssue) advance(at int) (Result, bool, error) {
	t, p, g := m.st.t, m.st.p, m.st.g
	var acct *probe.Account
	if m.probe != nil {
		acct = &m.st.acct
	}
	var (
		nextIssue = m.st.next // earliest cycle the next instruction may issue
		lastDone  = m.st.last
	)
	end := min(at, len(t.Ops))
	for i := m.st.pos; i < end; i++ {
		op := &t.Ops[i]
		po := &p.Ops[i]
		isBranch := po.Flags.Has(trace.FlagBranch)

		e := nextIssue
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
		var reason probe.Reason
		if acct != nil {
			// Replayed before any resource is claimed below, so the
			// classification sees the same state the chain above did.
			reason = m.issueReason(op, po, isBranch, nextIssue)
		}
		var done int64
		if isBranch && m.cfg.PerfectBranches {
			// Verification happens off the critical path; the branch
			// is architecturally complete the cycle after issue.
			done = e + 1
		} else {
			done = m.pool.Accept(op.Unit, e)
		}
		if po.Flags.Has(trace.FlagMemory) {
			m.banks.Accept(op.Addr, e)
		}

		if po.Flags.Has(trace.FlagHasDst) {
			m.sb.SetReady(op.Dst, done)
		}
		if po.Flags.Has(trace.FlagStore) {
			m.mem.Store(po.AddrID, done)
		}
		if acct != nil {
			acct.Issue(e, reason)
			m.probe.Writeback(done, op.Unit, done-e)
		}
		if m.rec != nil {
			m.rec.RecordIssue(op.Seq, e)
			m.rec.RecordExec(op.Seq, e, op.Unit, done-e)
			m.rec.RecordWriteback(op.Seq, done, op.Unit)
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

		switch {
		case isBranch && m.cfg.PerfectBranches:
			// Ablation: perfect prediction; the branch costs only its
			// issue slot.
			nextIssue = e + 1
			if acct != nil {
				m.probe.BranchResolve(done)
			}
			if m.rec != nil {
				m.rec.RecordBranchResolve(op.Seq, done)
			}
		case isBranch:
			// A branch blocks the issue stage for its full execution
			// time; the next instruction (fall-through or target)
			// issues no earlier than resolution.
			nextIssue = e + int64(m.cfg.BranchLatency)
			if acct != nil {
				acct.Advance(nextIssue, probe.ReasonBranch)
				m.probe.BranchResolve(nextIssue)
			}
			if m.rec != nil {
				m.rec.RecordBranchResolve(op.Seq, nextIssue)
			}
		case m.exclusive:
			// Simple machine: the next instruction sits in decode
			// until the execution stage drains.
			nextIssue = done
			if acct != nil {
				acct.Advance(done, probe.ReasonStructFU)
			}
		default:
			// One instruction per cycle. Unlike the real CRAY-1S, the
			// paper's base architecture issues every instruction —
			// 1-parcel or 2-parcel — in a single cycle when issue
			// conditions are favorable (§2); only branches hold the
			// issue stage longer.
			nextIssue = e + 1
		}
	}
	m.st.pos, m.st.next, m.st.last, m.st.g = end, nextIssue, lastDone, g
	if end < len(t.Ops) {
		return Result{}, false, nil
	}
	return m.finish()
}

// issueReason replays the issue-constraint chain from e to name the
// binding constraint — the last one to strictly raise the issue
// cycle. Term for term it is the max-form that regfile.EarliestFor
// and the Earliest* helpers compute, called before any resource is
// claimed, so it reproduces the hot path's result exactly.
// Classification lives here, on the probed path only, so the hot
// path stays the seed computation.
func (m *singleIssue) issueReason(op *trace.Op, po *trace.PreparedOp, isBranch bool, e int64) probe.Reason {
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
			reason = probe.ReasonMemBank
		}
	}
	return reason
}

func (m *singleIssue) units() *fu.Pool { return m.pool }

func (m *singleIssue) spare() forker { return spareOf(NewBasic(m.org, m.cfg)) }

func (m *singleIssue) fork(src forker, t *trace.Trace, p probe.Probe) {
	s := src.(*singleIssue)
	m.pool.CopyFrom(s.pool)
	m.sb = s.sb
	m.mem.copyFrom(&s.mem, t.Prepared().NumAddrs)
	m.banks.CopyFrom(s.banks)
	m.resume(&s.lifecycle, t, p)
}
