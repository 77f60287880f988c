// Package emu is the architectural emulator: it executes an
// isa.Program over register and memory state, producing both the
// program's results (for numeric validation against reference
// implementations) and the dynamic instruction trace that drives the
// timing simulators.
//
// The emulator is purely functional/architectural — it knows nothing
// about cycles, functional-unit occupancy, or issue rules. Timing is
// entirely the business of the machine models in internal/core, which
// consume the trace this package produces. That separation mirrors
// the paper's methodology: "Instruction traces were generated for each
// of the benchmark programs and then used to drive the simulations."
package emu

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"mfup/internal/isa"
	"mfup/internal/trace"
)

// DefaultMemoryWords is the size of a Machine's memory when none is
// specified: 1 Mi 64-bit words, far more than any built-in kernel
// needs.
const DefaultMemoryWords = 1 << 20

// DefaultStepLimit bounds the dynamic instruction count of a single
// Run, so a buggy kernel with a non-terminating loop yields an error
// instead of a hang.
const DefaultStepLimit = 50_000_000

// ErrStepLimit is returned (wrapped) when a program exceeds the step
// limit.
var ErrStepLimit = errors.New("emu: dynamic step limit exceeded")

// Run collects ops in chunks that double from firstChunk ops up to
// maxChunk ops (1 MiB), so a short trace allocates little and a long
// one is never re-copied while it grows: each op is written once into
// a chunk and once into the trace's exact-size slice.
const (
	firstChunk = 256
	maxChunk   = 1 << 14
)

// opChunks is Run's emission buffer.
type opChunks struct {
	full [][]trace.Op // filled chunks, in order
	cur  []trace.Op   // the chunk being filled
}

func (c *opChunks) add(op *trace.Op) {
	if len(c.cur) == cap(c.cur) {
		size := firstChunk
		if c.cur != nil {
			c.full = append(c.full, c.cur)
			size = min(2*cap(c.cur), maxChunk)
		}
		c.cur = make([]trace.Op, 0, size)
	}
	c.cur = append(c.cur, *op)
}

// ops returns the collected ops in one slice with cap == len (nil when
// there are none).
func (c *opChunks) ops() []trace.Op {
	if c.cur == nil {
		return nil
	}
	n := len(c.cur)
	for _, ch := range c.full {
		n += len(ch)
	}
	out := make([]trace.Op, 0, n)
	for _, ch := range c.full {
		out = append(out, ch...)
	}
	return append(out, c.cur...)
}

// Machine is the architectural state: the four register files and
// word-addressed memory.
type Machine struct {
	A [isa.NumA]int64
	S [isa.NumS]uint64
	B [isa.NumB]int64
	T [isa.NumT]uint64

	// Vector extension state: eight 64-element vector registers and
	// the vector length.
	V  [isa.NumV][isa.VecLen]uint64
	VL int64

	Mem []uint64

	// StepLimit bounds Run; 0 means DefaultStepLimit.
	StepLimit int64
}

// New returns a machine with the given number of memory words
// (DefaultMemoryWords if words <= 0).
func New(words int) *Machine {
	if words <= 0 {
		words = DefaultMemoryWords
	}
	return &Machine{Mem: make([]uint64, words)}
}

// Reset clears all registers. Memory is left untouched so a caller
// can lay out data once and run several programs over it.
func (m *Machine) Reset() {
	m.A = [isa.NumA]int64{}
	m.S = [isa.NumS]uint64{}
	m.B = [isa.NumB]int64{}
	m.T = [isa.NumT]uint64{}
	m.V = [isa.NumV][isa.VecLen]uint64{}
	m.VL = 0
}

// Float returns memory word addr interpreted as a float64.
func (m *Machine) Float(addr int64) float64 {
	return math.Float64frombits(m.Mem[addr])
}

// SetFloat stores f into memory word addr.
func (m *Machine) SetFloat(addr int64, f float64) {
	m.Mem[addr] = math.Float64bits(f)
}

// Int returns memory word addr interpreted as an int64.
func (m *Machine) Int(addr int64) int64 { return int64(m.Mem[addr]) }

// SetInt stores v into memory word addr.
func (m *Machine) SetInt(addr int64, v int64) { m.Mem[addr] = uint64(v) }

// SFloat returns scalar register i as a float64.
func (m *Machine) SFloat(i int) float64 { return math.Float64frombits(m.S[i]) }

// SetSFloat sets scalar register i to the float64 f.
func (m *Machine) SetSFloat(i int, f float64) { m.S[i] = math.Float64bits(f) }

// RuntimeError describes a fault during emulation, with the dynamic
// and static positions at which it occurred.
type RuntimeError struct {
	Program string
	PC      int
	Seq     int64
	Err     error
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("emu: %s: pc=%d seq=%d: %v", e.Program, e.PC, e.Seq, e.Err)
}

func (e *RuntimeError) Unwrap() error { return e.Err }

// Run executes p to completion (PC falling off the end of the code)
// and returns the dynamic trace, whose Ops slice has no spare
// capacity. Register state and memory reflect the completed execution.
func (m *Machine) Run(p *isa.Program) (*trace.Trace, error) {
	limit := m.StepLimit
	if limit == 0 {
		limit = DefaultStepLimit
	}
	var emitted opChunks
	pc := 0
	var seq int64
	fail := func(err error) (*trace.Trace, error) {
		return nil, &RuntimeError{Program: p.Name, PC: pc, Seq: seq, Err: err}
	}
	for pc < len(p.Code) {
		if seq >= limit {
			return fail(ErrStepLimit)
		}
		in := &p.Code[pc]
		op := trace.Op{
			Seq:     seq,
			PC:      pc,
			Code:    in.Op,
			Unit:    in.Unit(),
			Parcels: int8(in.Parcels()),
			Dst:     in.Dst,
			Src1:    in.Src1,
			Src2:    in.Src2,
		}
		next := pc + 1
		switch in.Op {
		case isa.OpPass:
			// nothing

		case isa.OpAAdd:
			m.A[in.Dst.Index()] = m.A[in.Src1.Index()] + m.A[in.Src2.Index()]
		case isa.OpASub:
			m.A[in.Dst.Index()] = m.A[in.Src1.Index()] - m.A[in.Src2.Index()]
		case isa.OpAMul:
			m.A[in.Dst.Index()] = m.A[in.Src1.Index()] * m.A[in.Src2.Index()]
		case isa.OpAImm:
			m.A[in.Dst.Index()] = in.Imm
		case isa.OpAAddImm:
			m.A[in.Dst.Index()] = m.A[in.Src1.Index()] + in.Imm

		case isa.OpSAdd:
			m.S[in.Dst.Index()] = uint64(int64(m.S[in.Src1.Index()]) + int64(m.S[in.Src2.Index()]))
		case isa.OpSSub:
			m.S[in.Dst.Index()] = uint64(int64(m.S[in.Src1.Index()]) - int64(m.S[in.Src2.Index()]))
		case isa.OpSAnd:
			m.S[in.Dst.Index()] = m.S[in.Src1.Index()] & m.S[in.Src2.Index()]
		case isa.OpSOr:
			m.S[in.Dst.Index()] = m.S[in.Src1.Index()] | m.S[in.Src2.Index()]
		case isa.OpSXor:
			m.S[in.Dst.Index()] = m.S[in.Src1.Index()] ^ m.S[in.Src2.Index()]
		case isa.OpSShiftL:
			m.S[in.Dst.Index()] = m.S[in.Src1.Index()] << uint(in.Imm)
		case isa.OpSShiftR:
			m.S[in.Dst.Index()] = m.S[in.Src1.Index()] >> uint(in.Imm)
		case isa.OpSImm:
			m.S[in.Dst.Index()] = uint64(in.Imm)
		case isa.OpSPop:
			m.S[in.Dst.Index()] = uint64(bits.OnesCount64(m.S[in.Src1.Index()]))
		case isa.OpSLZ:
			m.S[in.Dst.Index()] = uint64(bits.LeadingZeros64(m.S[in.Src1.Index()]))

		case isa.OpFAdd:
			m.setF(in.Dst, m.f(in.Src1)+m.f(in.Src2))
		case isa.OpFSub:
			m.setF(in.Dst, m.f(in.Src1)-m.f(in.Src2))
		case isa.OpFMul:
			m.setF(in.Dst, m.f(in.Src1)*m.f(in.Src2))
		case isa.OpRecip:
			// The CRAY-1 reciprocal-approximation unit delivers ~30
			// correct bits; kernels refine with a Newton step. We
			// compute the exact reciprocal, which makes the Newton
			// step a timing no-op and keeps validation simple.
			m.setF(in.Dst, 1/m.f(in.Src1))

		case isa.OpMoveAS:
			m.A[in.Dst.Index()] = int64(m.S[in.Src1.Index()])
		case isa.OpMoveSA:
			m.S[in.Dst.Index()] = uint64(m.A[in.Src1.Index()])
		case isa.OpMoveAB:
			m.A[in.Dst.Index()] = m.B[in.Src1.Index()]
		case isa.OpMoveBA:
			m.B[in.Dst.Index()] = m.A[in.Src1.Index()]
		case isa.OpMoveST:
			m.S[in.Dst.Index()] = m.T[in.Src1.Index()]
		case isa.OpMoveTS:
			m.T[in.Dst.Index()] = m.S[in.Src1.Index()]

		case isa.OpFix:
			m.A[in.Dst.Index()] = int64(m.f(in.Src1))
		case isa.OpFloat:
			m.setF(in.Dst, float64(m.A[in.Src1.Index()]))

		case isa.OpLoadS, isa.OpLoadA, isa.OpStoreS, isa.OpStoreA:
			addr := m.A[in.Src1.Index()] + in.Imm
			if addr < 0 || addr >= int64(len(m.Mem)) {
				return fail(fmt.Errorf("memory access out of range: address %d (memory %d words)", addr, len(m.Mem)))
			}
			op.Addr = addr
			switch in.Op {
			case isa.OpLoadS:
				m.S[in.Dst.Index()] = m.Mem[addr]
			case isa.OpLoadA:
				m.A[in.Dst.Index()] = int64(m.Mem[addr])
			case isa.OpStoreS:
				m.Mem[addr] = m.S[in.Src2.Index()]
			case isa.OpStoreA:
				m.Mem[addr] = uint64(m.A[in.Src2.Index()])
			}

		case isa.OpJ:
			op.Taken = true
			next = in.Target
		case isa.OpJAZ, isa.OpJAN, isa.OpJAP, isa.OpJAM:
			taken := false
			a0 := m.A[0]
			switch in.Op {
			case isa.OpJAZ:
				taken = a0 == 0
			case isa.OpJAN:
				taken = a0 != 0
			case isa.OpJAP:
				taken = a0 >= 0
			case isa.OpJAM:
				taken = a0 < 0
			}
			op.Taken = taken
			if taken {
				next = in.Target
			}

		case isa.OpVLSet:
			m.VL = m.A[in.Src1.Index()]
			if m.VL < 0 || m.VL > isa.VecLen {
				return fail(fmt.Errorf("VL = %d outside [0, %d]", m.VL, isa.VecLen))
			}

		case isa.OpVLoad, isa.OpVStore:
			base := m.A[in.Src1.Index()]
			stride := in.Imm
			last := base + stride*(m.VL-1)
			if m.VL > 0 && (base < 0 || base >= int64(len(m.Mem)) || last < 0 || last >= int64(len(m.Mem))) {
				return fail(fmt.Errorf("vector access out of range: base %d stride %d length %d", base, stride, m.VL))
			}
			op.Addr = base
			op.Stride = stride
			op.VLen = int16(m.VL)
			if in.Op == isa.OpVLoad {
				vd := in.Dst.Index()
				for i := int64(0); i < m.VL; i++ {
					m.V[vd][i] = m.Mem[base+stride*i]
				}
			} else {
				vs := in.Src2.Index()
				for i := int64(0); i < m.VL; i++ {
					m.Mem[base+stride*i] = m.V[vs][i]
				}
			}

		case isa.OpVFAdd, isa.OpVFSub, isa.OpVFMul:
			op.VLen = int16(m.VL)
			vd, v1, v2 := in.Dst.Index(), in.Src1.Index(), in.Src2.Index()
			for i := int64(0); i < m.VL; i++ {
				a := math.Float64frombits(m.V[v1][i])
				b := math.Float64frombits(m.V[v2][i])
				var r float64
				switch in.Op {
				case isa.OpVFAdd:
					r = a + b
				case isa.OpVFSub:
					r = a - b
				case isa.OpVFMul:
					r = a * b
				}
				m.V[vd][i] = math.Float64bits(r)
			}

		case isa.OpVSFAdd, isa.OpVSFMul:
			op.VLen = int16(m.VL)
			vd, v2 := in.Dst.Index(), in.Src2.Index()
			s := math.Float64frombits(m.S[in.Src1.Index()])
			for i := int64(0); i < m.VL; i++ {
				b := math.Float64frombits(m.V[v2][i])
				var r float64
				if in.Op == isa.OpVSFAdd {
					r = s + b
				} else {
					r = s * b
				}
				m.V[vd][i] = math.Float64bits(r)
			}

		case isa.OpMoveSV:
			idx := m.A[in.Src2.Index()]
			if idx < 0 || idx >= isa.VecLen {
				return fail(fmt.Errorf("vector element index %d outside [0, %d)", idx, isa.VecLen))
			}
			m.S[in.Dst.Index()] = m.V[in.Src1.Index()][idx]

		default:
			return fail(fmt.Errorf("unimplemented opcode %s", in.Op))
		}
		emitted.add(&op)
		seq++
		pc = next
	}
	return &trace.Trace{Name: p.Name, Ops: emitted.ops()}, nil
}

func (m *Machine) f(r isa.Reg) float64 {
	return math.Float64frombits(m.S[r.Index()])
}

func (m *Machine) setF(r isa.Reg, v float64) {
	m.S[r.Index()] = math.Float64bits(v)
}
