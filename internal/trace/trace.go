// Package trace defines the dynamic instruction trace that drives the
// simulators, exactly as instruction traces drove the modified CRAY-1
// simulator in the paper. A trace records, for each dynamically
// executed instruction, everything a timing model needs: the
// functional unit, parcel count, register operands, and — for memory
// operations — the effective address.
package trace

import (
	"fmt"
	"sync"

	"mfup/internal/isa"
)

// Op is one dynamically executed instruction.
//
// Unused register fields must be set to isa.NoReg explicitly: the
// zero value of isa.Reg is A0, so a zero-valued Op does not denote
// "no operands". The emulator always populates every field; code that
// builds Ops by hand (tests, synthetic workloads) must do the same.
type Op struct {
	Seq     int64 // position in the dynamic stream, 0-based
	PC      int   // static instruction index in the program
	Code    isa.Opcode
	Unit    isa.Unit
	Parcels int8

	Dst  isa.Reg // destination register or isa.NoReg
	Src1 isa.Reg // first source or isa.NoReg
	Src2 isa.Reg // second source or isa.NoReg

	Addr  int64 // effective/base address, valid when Code.IsMemory()
	Taken bool  // branch outcome, valid when Code.IsBranch()

	// Vector extension fields.
	Stride int64 // element stride, valid when Code.IsVectorMemory()
	VLen   int16 // elements processed, valid when Code.IsVector()
}

// IsBranch reports whether the op is a control transfer.
func (o *Op) IsBranch() bool { return o.Code.IsBranch() }

// IsMemory reports whether the op uses the memory unit.
func (o *Op) IsMemory() bool { return o.Code.IsMemory() }

// Reads appends the registers the op reads to dst. Conditional
// branches read A0.
func (o *Op) Reads(dst []isa.Reg) []isa.Reg {
	if o.Src1.Valid() {
		dst = append(dst, o.Src1)
	}
	if o.Src2.Valid() {
		dst = append(dst, o.Src2)
	}
	if o.Code.IsConditional() {
		dst = append(dst, isa.A0)
	}
	return dst
}

// String renders the op for debugging.
func (o *Op) String() string {
	return fmt.Sprintf("#%d pc=%d %s dst=%s src=%s,%s unit=%s",
		o.Seq, o.PC, o.Code, o.Dst, o.Src1, o.Src2, o.Unit)
}

// Trace is the full dynamic instruction stream of one program run.
// The Ops slice must not be mutated after the first simulation run:
// machines share one trace read-only, along with its prepared decode
// cache.
type Trace struct {
	Name string
	Ops  []Op

	prepOnce sync.Once
	prep     *Prepared

	mixOnce sync.Once
	mix     Mix
}

// Len returns the number of dynamic instructions.
func (t *Trace) Len() int { return len(t.Ops) }

// Prepared returns the trace's decode cache, computing it on first
// use. The cache is shared: concurrent callers — machines running the
// same trace on different goroutines — receive the same immutable
// Prepared.
func (t *Trace) Prepared() *Prepared {
	t.prepOnce.Do(func() { t.prep = Prepare(t) })
	return t.prep
}

// Mix summarizes a trace's instruction mix: how the dynamic stream
// distributes over functional-unit classes. The paper's resource
// limit (§4) is computed directly from these counts.
type Mix struct {
	Total    int64
	ByUnit   [isa.NumUnits]int64
	Loads    int64
	Stores   int64
	Branches int64
	Taken    int64
	Parcels  int64
}

// ComputeMix returns the instruction mix of t, tallied on first use
// and kept beside the decode cache: like it, it assumes Ops no longer
// change.
func (t *Trace) ComputeMix() Mix {
	t.mixOnce.Do(func() { t.mix = tally(t.Ops) })
	return t.mix
}

// tally counts the instruction mix of ops.
func tally(ops []Op) Mix {
	var m Mix
	for i := range ops {
		o := &ops[i]
		m.Total++
		m.ByUnit[o.Unit]++
		m.Parcels += int64(o.Parcels)
		switch {
		case o.Code.IsLoad():
			m.Loads++
		case o.Code.IsStore():
			m.Stores++
		case o.IsBranch():
			m.Branches++
			if o.Taken {
				m.Taken++
			}
		}
	}
	return m
}

// Fraction returns the share of dynamic instructions executed by unit
// u, in [0,1]. It returns 0 for an empty trace.
func (m Mix) Fraction(u isa.Unit) float64 {
	if m.Total == 0 {
		return 0
	}
	return float64(m.ByUnit[u]) / float64(m.Total)
}

// BusiestUnit returns the unit class with the highest dynamic count
// and that count. Ties resolve to the lowest-numbered unit.
func (m Mix) BusiestUnit() (isa.Unit, int64) {
	best := isa.Unit(0)
	var n int64
	for u := 0; u < isa.NumUnits; u++ {
		if m.ByUnit[u] > n {
			best, n = isa.Unit(u), m.ByUnit[u]
		}
	}
	return best, n
}

// String renders the mix as a one-line summary.
func (m Mix) String() string {
	return fmt.Sprintf("total=%d mem=%.1f%% branch=%.1f%% float=%.1f%%",
		m.Total,
		100*m.Fraction(isa.Memory),
		100*m.Fraction(isa.Branch),
		100*(m.Fraction(isa.FloatAdd)+m.Fraction(isa.FloatMul)+m.Fraction(isa.Recip)))
}
