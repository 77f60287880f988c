package trace

import (
	"fmt"
	"sync"

	"mfup/internal/isa"
)

// OpFlags is the decoded classification of one op: every predicate the
// machine models test per cycle, resolved once at preparation time so
// the hot simulation loops never consult the opcode tables.
type OpFlags uint16

// Classification bits.
const (
	FlagBranch      OpFlags = 1 << iota // control transfer
	FlagConditional                     // conditional branch (reads A0)
	FlagTaken                           // branch with a taken outcome
	FlagMemory                          // uses the memory unit
	FlagLoad                            // reads memory
	FlagStore                           // writes memory
	FlagVector                          // vector-extension instruction
	FlagHasDst                          // writes a register (Dst valid)
)

// Has reports whether all bits of x are set.
func (f OpFlags) Has(x OpFlags) bool { return f&x == x }

// maxReads is the largest possible read set: two source registers plus
// A0 for a conditional branch.
const maxReads = 3

// PreparedOp carries the decode-time facts about one op that the
// timing models would otherwise recompute every cycle they re-examine
// a stalled instruction.
type PreparedOp struct {
	reads  [maxReads]isa.Reg
	nreads uint8
	Flags  OpFlags

	// AddrID is a dense index over the trace's distinct memory
	// addresses (-1 for non-memory ops). Machines track per-address
	// state (store-to-load dependences, renamed memory instances) in
	// flat slices indexed by it instead of hashing Op.Addr every
	// access.
	AddrID int32
}

// Reads returns the op's read registers (sources plus A0 for a
// conditional branch). The slice aliases the prepared storage and must
// not be modified.
func (p *PreparedOp) Reads() []isa.Reg { return p.reads[:p.nreads] }

// Prepared is the one-time decode of a Trace: per-op read sets and
// classification flags, plus fetch-window hints. It is immutable after
// Prepare returns and therefore safe to share read-only across any
// number of concurrently running machines.
type Prepared struct {
	// Trace is the decoded trace.
	Trace *Trace

	// Ops holds one decoded entry per Trace.Ops element.
	Ops []PreparedOp

	// FirstVector is the index of the first vector instruction, or -1
	// if the trace is purely scalar. Scalar machines use it to reject
	// vector traces without rescanning the stream on every run.
	FirstVector int

	// NumAddrs is the number of distinct memory addresses in the
	// trace: AddrID values range over [0, NumAddrs).
	NumAddrs int

	// nextTaken[i] is the index of the first taken branch at or after
	// position i, or len(Ops) if there is none. It answers the
	// fetch-buffer question "where does the window starting at i end?"
	// without a scan.
	nextTaken []int32

	// periodOnce guards the lazily computed steady-state loop
	// structure (Period); like the decode itself, the analysis result
	// is immutable and shared.
	periodOnce sync.Once
	period     *Period

	// nestOnce guards the lazily computed triangular loop nest (Nest),
	// asked for only of traces with no Period.
	nestOnce sync.Once
	nest     *Nest

	// Err is non-nil when the trace failed validation: an undefined
	// opcode, a functional-unit or register index outside the dense
	// arrays the timing models key by it, a malformed parcel count, or
	// a vector length past the hardware's. ErrIndex is the position of
	// the first invalid op. Machines must refuse a trace with Err set
	// (they surface it as a KindBadTrace SimError) — running it would
	// index out of range deep inside a model.
	Err      error
	ErrIndex int
}

// validateOp checks the decode-level invariants every timing model
// assumes: a defined opcode, Unit within [0, NumUnits) (models index
// their functional-unit pools by it), registers either NoReg or in
// range (scoreboards are dense arrays over Reg), a parcel count of 1
// or 2 (the CRAY-1S instruction sizes), a nonnegative address for
// memory ops, and a vector length within the hardware's VecLen.
func validateOp(o *Op) error {
	switch {
	case !o.Code.Valid():
		return fmt.Errorf("undefined opcode %d", uint8(o.Code))
	case int(o.Unit) >= isa.NumUnits:
		return fmt.Errorf("functional unit %d out of range [0,%d)", uint8(o.Unit), isa.NumUnits)
	case o.Parcels < 0 || o.Parcels > 2:
		// 1 and 2 are the CRAY-1S instruction sizes; 0 is tolerated as
		// "unset" because synthetic traces (tests, workload generators)
		// omit the field and every model treats it as one parcel.
		return fmt.Errorf("parcel count %d out of range [0,2]", o.Parcels)
	case o.Dst != isa.NoReg && !o.Dst.Valid():
		return fmt.Errorf("destination register %d out of range [0,%d)", int(o.Dst), isa.NumRegs)
	case o.Src1 != isa.NoReg && !o.Src1.Valid():
		return fmt.Errorf("source register %d out of range [0,%d)", int(o.Src1), isa.NumRegs)
	case o.Src2 != isa.NoReg && !o.Src2.Valid():
		return fmt.Errorf("source register %d out of range [0,%d)", int(o.Src2), isa.NumRegs)
	case o.Code.IsMemory() && o.Addr < 0:
		return fmt.Errorf("negative address %d", o.Addr)
	case o.VLen < 0 || o.VLen > isa.VecLen:
		return fmt.Errorf("vector length %d out of range [0,%d]", o.VLen, isa.VecLen)
	}
	return nil
}

// Validate checks every op of t against the decode-level invariants
// and returns the first violation (nil for a healthy trace). It is
// the standalone form of the validation Prepare performs.
func Validate(t *Trace) error {
	for i := range t.Ops {
		if err := validateOp(&t.Ops[i]); err != nil {
			return fmt.Errorf("trace %q op %d: %w", t.Name, i, err)
		}
	}
	return nil
}

// Prepare decodes t. Callers that run a trace more than once should
// prefer Trace.Prepared, which caches the result.
func Prepare(t *Trace) *Prepared {
	p := &Prepared{
		Trace:       t,
		Ops:         make([]PreparedOp, len(t.Ops)),
		FirstVector: -1,
		nextTaken:   make([]int32, len(t.Ops)+1),
	}
	// A trace has at most one distinct address per memory op.
	memOps := 0
	for i := range t.Ops {
		if c := t.Ops[i].Code; c.Valid() && c.IsMemory() {
			memOps++
		}
	}
	addrIDs := make(map[int64]int32, memOps)
	for i := range t.Ops {
		o := &t.Ops[i]
		if err := validateOp(o); err != nil {
			// Record the first violation and stop decoding: machines
			// check Err before touching Ops, so the partial decode is
			// never consumed.
			p.Err = fmt.Errorf("trace %q op %d: %w", t.Name, i, err)
			p.ErrIndex = i
			break
		}
		po := &p.Ops[i]
		po.AddrID = -1
		if o.Src1.Valid() {
			po.reads[po.nreads] = o.Src1
			po.nreads++
		}
		if o.Src2.Valid() {
			po.reads[po.nreads] = o.Src2
			po.nreads++
		}
		if o.Code.IsConditional() {
			po.reads[po.nreads] = isa.A0
			po.nreads++
			po.Flags |= FlagConditional
		}
		if o.Code.IsBranch() {
			po.Flags |= FlagBranch
			if o.Taken {
				po.Flags |= FlagTaken
			}
		}
		if o.Code.IsMemory() {
			po.Flags |= FlagMemory
			id, ok := addrIDs[o.Addr]
			if !ok {
				id = int32(len(addrIDs))
				addrIDs[o.Addr] = id
			}
			po.AddrID = id
		}
		if o.Code.IsLoad() {
			po.Flags |= FlagLoad
		}
		if o.Code.IsStore() {
			po.Flags |= FlagStore
		}
		if o.Code.IsVector() {
			po.Flags |= FlagVector
			if p.FirstVector < 0 {
				p.FirstVector = i
			}
		}
		if o.Dst.Valid() {
			po.Flags |= FlagHasDst
		}
	}
	p.NumAddrs = len(addrIDs)
	next := int32(len(t.Ops))
	p.nextTaken[len(t.Ops)] = next
	for i := len(t.Ops) - 1; i >= 0; i-- {
		if p.Ops[i].Flags.Has(FlagBranch | FlagTaken) {
			next = int32(i)
		}
		p.nextTaken[i] = next
	}
	return p
}

// Window returns the end (exclusive) of a fetch buffer of capacity w
// starting at pos: the buffer holds up to w ops but ends early just
// after a taken branch, whose fall-through ops are squashed.
func (p *Prepared) Window(pos, w int) int {
	end := pos + w
	if end > len(p.Ops) {
		end = len(p.Ops)
	}
	if nt := int(p.nextTaken[pos]); nt < end {
		end = nt + 1
	}
	return end
}
