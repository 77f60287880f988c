package core

import (
	"mfup/internal/fu"
	"mfup/internal/probe"
	"mfup/internal/regfile"
	"mfup/internal/trace"
)

// scoreboard implements the first of §3.3's single-issue dependency
// resolution schemes: the CDC 6600 discipline. An instruction leaves
// the issue stage even when its operands are not yet available — it
// waits at its functional unit — so RAW hazards no longer block
// issue. A WAW hazard still does: the destination register is
// reserved at issue and a second writer may not issue until the first
// completes (the 6600 had no buffering for multiple register
// instances). Functional units remain CRAY-like (fully segmented,
// interleaved memory), per §3.3's framing.
//
// Branches behave as in the base machines: no prediction, the issue
// stage blocks for the branch execution time, and a conditional
// branch additionally waits for A0.
type scoreboard struct {
	lifecycle
	pool *fu.Pool
	sb   regfile.Scoreboard
	mem  memScoreboard
}

// NewScoreboard builds the CDC-6600-style single-issue machine of
// §3.3. It reports an invalid configuration as an error.
func NewScoreboard(cfg Config) (Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pool := cfg.newPool()
	pool.SegmentAll()
	return &scoreboard{lifecycle: lifecycle{cfg: cfg}, pool: pool}, nil
}

func (m *scoreboard) Name() string { return "Scoreboard" }

// RunChecked simulates t under the limits; issue times are computed
// directly, so only the cycle budget and deadline apply.
func (m *scoreboard) RunChecked(t *trace.Trace, lim Limits) (Result, error) {
	return runChecked(m, t, lim)
}

func (m *scoreboard) begin(t *trace.Trace, lim Limits) error {
	p, err := m.start("Scoreboard", t, lim, scalarOnly, 1, 0)
	if err != nil {
		return err
	}
	m.pool.Reset()
	m.sb.Reset()
	m.mem.Reset(p.NumAddrs)
	return nil
}

// advance issues ops up to op at, one op at a time.
func (m *scoreboard) advance(at int) (Result, bool, error) {
	t, p, g := m.st.t, m.st.p, m.st.g
	var acct *probe.Account
	if m.probe != nil {
		acct = &m.st.acct
	}
	var (
		nextIssue = m.st.next
		lastDone  = m.st.last
	)
	end := min(at, len(t.Ops))
	for i := m.st.pos; i < end; i++ {
		op := &t.Ops[i]
		po := &p.Ops[i]

		// Issue: one per cycle; WAW blocks, RAW does not. Any gap the
		// destination check opens is by construction a WAW stall — the
		// only hazard this issue discipline has left.
		e := nextIssue
		if po.Flags.Has(trace.FlagHasDst) {
			e = m.sb.EarliestFor(e, op.Dst) // destination reservation only
		}

		if po.Flags.Has(trace.FlagBranch) {
			// The branch reads A0 at the issue stage and blocks it
			// until resolution.
			s := e
			for _, r := range po.Reads() {
				if rdy := m.sb.ReadyAt(r); rdy > s {
					s = rdy
				}
			}
			done := s + int64(m.cfg.BranchLatency)
			nextIssue = done
			if acct != nil {
				acct.Issue(e, probe.ReasonWAW)
				// The A0 wait and the shadow both hold the issue stage
				// on the branch's behalf.
				acct.Advance(done, probe.ReasonBranch)
				m.probe.BranchResolve(done)
			}
			if m.rec != nil {
				m.rec.RecordIssue(op.Seq, e)
				m.rec.RecordBranchResolve(op.Seq, done)
			}
			if done > lastDone {
				lastDone = done
			}
			if err := g.Over(lastDone, int64(i)); err != nil {
				return Result{}, false, err
			}
			continue
		}

		// Execution begins at the unit once operands arrive.
		s := e
		for _, r := range po.Reads() {
			if rdy := m.sb.ReadyAt(r); rdy > s {
				s = rdy
			}
		}
		s = m.pool.EarliestAccept(op.Unit, s)
		if po.Flags.Has(trace.FlagLoad) {
			s = m.mem.EarliestLoad(po.AddrID, s)
		}
		done := m.pool.Accept(op.Unit, s)

		if po.Flags.Has(trace.FlagHasDst) {
			m.sb.SetReady(op.Dst, done)
		}
		if po.Flags.Has(trace.FlagStore) {
			m.mem.Store(po.AddrID, done)
		}
		if acct != nil {
			acct.Issue(e, probe.ReasonWAW)
			m.probe.Writeback(done, op.Unit, done-s)
		}
		if m.rec != nil {
			// The 6600 discipline: issue at e, execution from operand
			// arrival s, writeback at completion.
			m.rec.RecordIssue(op.Seq, e)
			m.rec.RecordExec(op.Seq, s, op.Unit, done-s)
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
		nextIssue = e + 1
	}
	m.st.pos, m.st.next, m.st.last, m.st.g = end, nextIssue, lastDone, g
	if end < len(t.Ops) {
		return Result{}, false, nil
	}
	return m.finish()
}

func (m *scoreboard) units() *fu.Pool { return m.pool }

func (m *scoreboard) spare() forker { return spareOf(NewScoreboard(m.cfg)) }

func (m *scoreboard) fork(src forker, t *trace.Trace, p probe.Probe) {
	s := src.(*scoreboard)
	m.pool.CopyFrom(s.pool)
	m.sb = s.sb
	m.mem.copyFrom(&s.mem, t.Prepared().NumAddrs)
	m.resume(&s.lifecycle, t, p)
}
