package core

// memScoreboard tracks memory-carried true dependences: the
// completion cycle of the most recent store to each address. A load
// may not issue before the store it depends on completes — the base
// machine has no store-to-load forwarding — and that matches the
// memory model of the §4 dataflow bounds, keeping "no machine beats
// its limit" a checkable invariant.
//
// Addresses are the dense per-trace ids of trace.PreparedOp.AddrID,
// so lookup is a slice index, not a hash.
//
// Anti-dependences (load then store to the same address) are not
// timing constraints in any of the models, and output dependences
// between stores are already serialized by in-order issue in the
// machines that use this scoreboard.
type memScoreboard struct {
	storeDone []int64 // by AddrID; 0 = no store pending
}

// Reset clears all tracked stores and sizes the table for a trace
// with numAddrs distinct addresses.
func (m *memScoreboard) Reset(numAddrs int) {
	if cap(m.storeDone) < numAddrs {
		m.storeDone = make([]int64, numAddrs)
		return
	}
	m.storeDone = m.storeDone[:numAddrs]
	clear(m.storeDone)
}

// copyFrom makes m a copy of src for a trace with numAddrs distinct
// addresses (copyResized).
func (m *memScoreboard) copyFrom(src *memScoreboard, numAddrs int) {
	m.storeDone = copyResized(m.storeDone, src.storeDone, numAddrs)
}

// EarliestLoad returns the earliest cycle >= t at which a load of
// address id may issue.
func (m *memScoreboard) EarliestLoad(id int32, t int64) int64 {
	if d := m.storeDone[id]; d > t {
		return d
	}
	return t
}

// Store records a store to address id completing at cycle done.
func (m *memScoreboard) Store(id int32, done int64) {
	m.storeDone[id] = done
}
