package core

import (
	"mfup/internal/fu"
	"mfup/internal/isa"
	"mfup/internal/probe"
	"mfup/internal/trace"
)

// vectorMachine is the vector-extension machine: the CRAY-like scalar
// machine of §3.2 plus a CRAY-1-style vector unit, so the
// vectorizable loops can be run the way the CRAY actually ran them
// and compared against the paper's multiple-issue scalar machines.
//
// Vector timing rules:
//
//   - A vector instruction of length L reserves its (segmented)
//     functional unit exclusively for L cycles: one element enters
//     per cycle. Scalar and vector operations share the same units,
//     the arrangement §3.2 attributes to the CRAY machines.
//   - The first result element appears after the unit latency;
//     element i at issue + latency + i.
//   - Chaining: a dependent vector instruction may issue one cycle
//     after its operand's first element arrives (the chain slot), and
//     then streams at the same one-element-per-cycle rate, so timing
//     stays consistent. A scalar read of a vector register (OpMoveSV)
//     and a rewrite of a register (WAW) wait for the full vector; a
//     rewrite also waits for in-flight readers (WAR matters once
//     registers are read over many cycles).
//   - Vector memory references stream through the interleaved memory
//     port at one element per cycle, first element after the memory
//     access time; bank conflicts are not modeled for vector strides
//     (the ideal interleaved memory of the paper).
//
// Scalar instructions follow the CRAY-like rules of §3, including
// branch blocking and store-to-load dependences. This is the only
// model that accepts vector traces; the scalar machines reject them
// with a BadTrace error.
type vectorMachine struct {
	lifecycle
	lat isa.Latencies // hoisted once; Config.Latencies rebuilds the table

	// Per-register timing state. For scalar registers the three
	// times coincide at instruction completion.
	readyRead   [isa.NumRegs]int64 // value readable/chainable
	fullDone    [isa.NumRegs]int64 // last element written
	readersDone [isa.NumRegs]int64 // in-flight readers finished

	lastAccept [isa.NumUnits]int64 // 1 op/cycle per segmented unit
	busyUntil  [isa.NumUnits]int64 // exclusive vector reservations

	mem memScoreboard // scalar store-to-load dependences
}

// NewVector builds the vector-extension machine. It reports an
// invalid configuration as an error.
func NewVector(cfg Config) (Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &vectorMachine{lifecycle: lifecycle{cfg: cfg}, lat: cfg.Latencies()}, nil
}

func (m *vectorMachine) Name() string { return "Vector" }

func (m *vectorMachine) reset(numAddrs int) {
	m.readyRead = [isa.NumRegs]int64{}
	m.fullDone = [isa.NumRegs]int64{}
	m.readersDone = [isa.NumRegs]int64{}
	m.lastAccept = [isa.NumUnits]int64{}
	m.busyUntil = [isa.NumUnits]int64{}
	m.mem.Reset(numAddrs)
	for u := range m.lastAccept {
		m.lastAccept[u] = -1
	}
}

// latency returns the unit latency under the machine configuration.
func (m *vectorMachine) latency(u isa.Unit) int64 {
	return int64(m.lat.Of(u))
}

// RunChecked simulates t under the limits; issue times are computed
// directly, so only the cycle budget and deadline apply.
func (m *vectorMachine) RunChecked(t *trace.Trace, lim Limits) (Result, error) {
	return runChecked(m, t, lim)
}

func (m *vectorMachine) begin(t *trace.Trace, lim Limits) error {
	p, err := m.start(m.Name(), t, lim, badTrace, 1, 0)
	if err != nil {
		return err
	}
	m.reset(p.NumAddrs)
	return nil
}

// advance issues ops up to op at, one op at a time.
func (m *vectorMachine) advance(at int) (Result, bool, error) {
	t, p, g := m.st.t, m.st.p, m.st.g
	var acct *probe.Account
	if m.probe != nil {
		acct = &m.st.acct
	}
	var (
		nextIssue = m.st.next
		lastDone  = m.st.last
	)
	bump := func(c int64) {
		if c > lastDone {
			lastDone = c
		}
	}

	end := min(at, len(t.Ops))
	for i := m.st.pos; i < end; i++ {
		op := &t.Ops[i]
		po := &p.Ops[i]
		unit := op.Unit
		lat := m.latency(unit)

		// Issue conditions: one instruction per cycle; sources
		// readable, destination free of WAW and (for vectors) WAR;
		// unit accepting.
		e := nextIssue
		for _, r := range po.Reads() {
			if m.readyRead[r] > e {
				e = m.readyRead[r]
			}
		}
		if d := op.Dst; d.Valid() {
			if m.fullDone[d] > e {
				e = m.fullDone[d]
			}
			if m.readersDone[d] > e {
				e = m.readersDone[d]
			}
		}
		if m.busyUntil[unit] > e {
			e = m.busyUntil[unit]
		}
		if m.lastAccept[unit] >= e {
			e = m.lastAccept[unit] + 1
		}
		if po.Flags.Has(trace.FlagLoad) {
			e = m.mem.EarliestLoad(po.AddrID, e)
		}
		if op.Code == isa.OpMoveSV {
			// Reading an element requires the whole source vector,
			// not just its chain point.
			if fd := m.fullDone[op.Src1]; fd > e {
				e = fd
			}
		}
		var reason probe.Reason
		if acct != nil {
			// Replayed before any state updates below, so the
			// classification sees the same state the chain above did.
			reason = m.issueReason(op, po, unit, nextIssue)
		}

		switch {
		case op.Code.IsVector() && op.Code != isa.OpVLSet && op.Code != isa.OpMoveSV:
			l := int64(op.VLen)
			if l < 1 {
				l = 1 // a zero-length vector op still occupies issue
			}
			m.lastAccept[unit] = e
			m.busyUntil[unit] = e + l
			first := e + lat // first element available
			full := e + lat + l
			if d := op.Dst; d.Valid() {
				m.readyRead[d] = first + 1 // chain slot
				m.fullDone[d] = full
			}
			for _, r := range po.Reads() {
				if r.Class() == isa.ClassV {
					if done := e + l; done > m.readersDone[r] {
						m.readersDone[r] = done
					}
				}
			}
			if acct != nil {
				acct.Issue(e, reason)
				m.probe.Writeback(full, unit, full-e)
			}
			if m.rec != nil {
				// A vector op streams through its unit until the last
				// element is written.
				m.rec.RecordIssue(op.Seq, e)
				m.rec.RecordExec(op.Seq, e, unit, full-e)
				m.rec.RecordWriteback(op.Seq, full, unit)
			}
			bump(full)
			nextIssue = e + 1

		case po.Flags.Has(trace.FlagBranch):
			done := e + int64(m.cfg.BranchLatency)
			if m.cfg.PerfectBranches {
				done = e + 1
			}
			if acct != nil {
				acct.Issue(e, reason)
				acct.Advance(done, probe.ReasonBranch)
				m.probe.BranchResolve(done)
			}
			if m.rec != nil {
				m.rec.RecordIssue(op.Seq, e)
				m.rec.RecordBranchResolve(op.Seq, done)
			}
			bump(done)
			nextIssue = done

		default:
			// Scalar instructions, OpVLSet, and OpMoveSV: ordinary
			// single-result operations.
			m.lastAccept[unit] = e
			done := e + lat
			if d := op.Dst; d.Valid() {
				m.readyRead[d] = done
				m.fullDone[d] = done
				m.readersDone[d] = done
			}
			if po.Flags.Has(trace.FlagStore) {
				m.mem.Store(po.AddrID, done)
			}
			if acct != nil {
				acct.Issue(e, reason)
				m.probe.Writeback(done, unit, done-e)
			}
			if m.rec != nil {
				m.rec.RecordIssue(op.Seq, e)
				m.rec.RecordExec(op.Seq, e, unit, done-e)
				m.rec.RecordWriteback(op.Seq, done, unit)
			}
			bump(done)
			nextIssue = e + 1
		}
		if err := g.Over(lastDone, int64(i)); err != nil {
			return Result{}, false, err
		}
		if err := g.Tick(lastDone, int64(i)); err != nil {
			return Result{}, false, err
		}
	}
	m.st.pos, m.st.next, m.st.last, m.st.g = end, nextIssue, lastDone, g
	if end < len(t.Ops) {
		return Result{}, false, nil
	}
	return m.finish()
}

// issueReason replays the issue-condition chain from e to name the
// binding constraint — the last one to strictly raise the issue
// cycle. Term for term it is the chain the hot path computes, called
// before any state is updated, so it reproduces the hot path's result
// exactly. Classification lives here, on the probed path only, so the
// hot path stays the seed computation. The WAR wait on in-flight
// readers is filed under WAW: both are the one-instance-per-register
// serialization the paper's register model imposes.
func (m *vectorMachine) issueReason(op *trace.Op, po *trace.PreparedOp, unit isa.Unit, e int64) probe.Reason {
	reason := probe.ReasonIssueWidth
	for _, r := range po.Reads() {
		if m.readyRead[r] > e {
			e, reason = m.readyRead[r], probe.ReasonRAW
		}
	}
	if d := op.Dst; d.Valid() {
		if m.fullDone[d] > e {
			e, reason = m.fullDone[d], probe.ReasonWAW
		}
		if m.readersDone[d] > e {
			e, reason = m.readersDone[d], probe.ReasonWAW
		}
	}
	if m.busyUntil[unit] > e {
		e, reason = m.busyUntil[unit], probe.ReasonStructFU
	}
	if m.lastAccept[unit] >= e {
		e, reason = m.lastAccept[unit]+1, probe.ReasonStructFU
	}
	if po.Flags.Has(trace.FlagLoad) {
		if me := m.mem.EarliestLoad(po.AddrID, e); me > e {
			e, reason = me, probe.ReasonRAW
		}
	}
	if op.Code == isa.OpMoveSV {
		if fd := m.fullDone[op.Src1]; fd > e {
			reason = probe.ReasonRAW
		}
	}
	return reason
}

// units reports no pool: the vector machine tracks its units itself.
func (m *vectorMachine) units() *fu.Pool { return nil }

func (m *vectorMachine) spare() forker { return spareOf(NewVector(m.cfg)) }

func (m *vectorMachine) fork(src forker, t *trace.Trace, p probe.Probe) {
	s := src.(*vectorMachine)
	m.readyRead, m.fullDone, m.readersDone = s.readyRead, s.fullDone, s.readersDone
	m.lastAccept, m.busyUntil = s.lastAccept, s.busyUntil
	m.mem.copyFrom(&s.mem, t.Prepared().NumAddrs)
	m.resume(&s.lifecycle, t, p)
}
