// Package mem refines the memory-system timing model beyond the
// paper's two points (serial, ideally interleaved) with an
// address-interleaved *banked* memory: B banks, bank = address mod B,
// one new request accepted per cycle machine-wide, and each bank busy
// for the full access time of a request it serves.
//
// The paper's "interleaved memory" is the B -> infinity ideal of this
// model (a new request every cycle, never a conflict), and its
// "serial memory" is B = 1. The banked model is an extension used for
// ablation: it quantifies how many banks the idealization assumes.
// The CRAY-1 itself had 16 banks with a 4-cycle bank busy time; here
// a bank is pessimistically busy for the full access latency, which
// brackets the effect.
package mem

// Banks models bank conflicts in an interleaved memory. The zero
// value (NumBanks 0) disables the model: every request is accepted as
// soon as presented, matching the ideal interleaved memory. Banks
// does not model the 1-request-per-cycle port; the machines already
// impose that through the memory functional unit.
type Banks struct {
	latency int
	busy    []int64 // per-bank next-free cycle
}

// NewBanks builds a model with the given bank count and access
// latency. numBanks 0 returns the disabled (ideal) model; numBanks
// must otherwise be positive.
func NewBanks(numBanks, latency int) *Banks {
	if numBanks < 0 {
		numBanks = 0
	}
	return &Banks{latency: latency, busy: make([]int64, numBanks)}
}

// Enabled reports whether bank conflicts are being modeled.
func (b *Banks) Enabled() bool { return len(b.busy) > 0 }

// Reset marks all banks free.
func (b *Banks) Reset() {
	for i := range b.busy {
		b.busy[i] = 0
	}
}

// CopyFrom makes b a copy of src, reusing b's storage.
func (b *Banks) CopyFrom(src *Banks) {
	b.latency = src.latency
	b.busy = append(b.busy[:0], src.busy...)
}

// EarliestAccept returns the earliest cycle >= t at which the bank
// holding addr can take a request.
func (b *Banks) EarliestAccept(addr, t int64) int64 {
	if len(b.busy) == 0 {
		return t
	}
	if f := b.busy[b.bank(addr)]; f > t {
		return f
	}
	return t
}

// Accept records a request to addr starting at cycle t; the bank is
// busy until t plus the access latency.
func (b *Banks) Accept(addr, t int64) {
	if len(b.busy) == 0 {
		return
	}
	b.busy[b.bank(addr)] = t + int64(b.latency)
}

func (b *Banks) bank(addr int64) int {
	i := int(addr % int64(len(b.busy)))
	if i < 0 {
		i += len(b.busy)
	}
	return i
}
