// Package mfup is a reproduction of Pleszkun & Sohi, "The Performance
// Potential of Multiple Functional Unit Processors" (UW-Madison CS TR
// #752 / ISCA 1988): a trace-driven simulator suite for CRAY-like
// single processors that measures how instruction issue rate responds
// to pipelining, multiple functional units, multiple issue units, and
// RUU-style dependency resolution.
//
// The package is a facade over the internal substrates:
//
//   - Machines: the paper's machine models (§3 basic organizations,
//     §5.1 in-order multiple issue, §5.2 out-of-order issue, §5.3 RUU).
//   - Kernels: the first 14 Lawrence Livermore Loops, hand-compiled
//     to the CRAY-like ISA, with validated execution.
//   - Limits: the §4 dataflow and resource bounds.
//   - Tables: regeneration of the paper's Tables 1-8.
//   - Assemble/TraceProgram: the custom-kernel workflow — write
//     assembly, trace it, simulate it on any machine.
//
// Quick start:
//
//	k := mfup.MustKernel(1) // LFK 1, hydro fragment
//	m, err := mfup.NewBasic(mfup.CRAYLike, mfup.M11BR5)
//	if err != nil {
//		log.Fatal(err)
//	}
//	r, err := m.RunChecked(k.SharedTrace(), mfup.SimLimits{})
//	if err != nil {
//		log.Fatal(err)
//	}
//	fmt.Printf("%.2f instructions/cycle\n", r.IssueRate())
package mfup

import (
	"mfup/internal/bus"
	"mfup/internal/core"
	"mfup/internal/limits"
	"mfup/internal/loops"
	"mfup/internal/trace"
)

// Re-exported core types. These aliases are the public names; see the
// internal packages for full documentation.
type (
	// Config selects memory latency, branch latency, and the
	// multiple-issue parameters of a machine.
	Config = core.Config

	// Machine is a timing model that runs traces.
	Machine = core.Machine

	// Result is one simulation outcome; IssueRate() is the paper's
	// metric.
	Result = core.Result

	// Organization selects one of the four §3 single-issue machines.
	Organization = core.Organization

	// BusKind selects the result-bus interconnect of §5.
	BusKind = bus.Kind

	// Trace is a dynamic instruction stream.
	Trace = trace.Trace

	// Kernel is one Livermore loop benchmark.
	Kernel = loops.Kernel

	// KernelClass partitions kernels into scalar and vectorizable.
	KernelClass = loops.Class

	// LimitMode selects Pure or Serial WAW treatment in §4 bounds.
	LimitMode = limits.Mode

	// Limits carries the §4 bounds for one trace.
	Limits = limits.Limits

	// SimLimits bounds a checked simulation run: a simulated-cycle
	// budget, a no-forward-progress watchdog, and a wall-clock
	// deadline. The zero value checks nothing; DefaultSimLimits
	// returns production-safe bounds.
	SimLimits = core.Limits

	// SimError is the structured failure a checked run returns: it
	// names the machine, the trace, the failure kind, and the cycle at
	// which the run was cut off, plus — for stalls — a snapshot of the
	// stuck in-flight instructions.
	SimError = core.SimError
)

// DefaultSimLimits returns the production-safe run bounds: a large
// cycle budget and the stall watchdog, no wall-clock deadline.
func DefaultSimLimits() SimLimits { return core.DefaultLimits() }

// The paper's four machine variations (memory latency x branch
// latency).
var (
	M11BR5 = core.M11BR5
	M11BR2 = core.M11BR2
	M5BR5  = core.M5BR5
	M5BR2  = core.M5BR2
)

// BaseConfigs returns the four variations in table order.
func BaseConfigs() []Config { return core.BaseConfigs() }

// The §3 single-issue machine organizations.
const (
	Simple       = core.Simple
	SerialMemory = core.SerialMemory
	NonSegmented = core.NonSegmented
	CRAYLike     = core.CRAYLike
)

// Organizations returns the §3 machines in Table 1 order.
func Organizations() []Organization { return core.Organizations() }

// Result-bus interconnects (§5.1).
const (
	XBar = bus.XBar
	BusN = bus.BusN
	Bus1 = bus.Bus1
)

// Kernel classes.
const (
	Scalar       = loops.Scalar
	Vectorizable = loops.Vectorizable
)

// Limit modes (§4).
const (
	Pure   = limits.Pure
	Serial = limits.Serial
)

// NewBasic builds one of the four basic single-issue machines of §3.
func NewBasic(o Organization, cfg Config) (Machine, error) { return core.NewBasic(o, cfg) }

// NewMultiIssue builds the §5.1 machine: cfg.IssueUnits stations with
// strictly in-order issue. Use Config.WithIssue to set the width and
// bus kind.
func NewMultiIssue(cfg Config) (Machine, error) { return core.NewMultiIssue(cfg) }

// NewMultiIssueOOO builds the §5.2 machine: out-of-order issue within
// the instruction buffer.
func NewMultiIssueOOO(cfg Config) (Machine, error) { return core.NewMultiIssueOOO(cfg) }

// NewRUU builds the §5.3 machine: multiple issue units with RUU
// dependency resolution. Use Config.WithIssue and Config.WithRUU.
func NewRUU(cfg Config) (Machine, error) { return core.NewRUU(cfg) }

// NewScoreboard builds the CDC-6600-style single-issue dependency-
// resolution machine referenced in §3.3: instructions issue past RAW
// hazards (waiting at their functional units) but WAW hazards still
// block issue.
func NewScoreboard(cfg Config) (Machine, error) { return core.NewScoreboard(cfg) }

// NewTomasulo builds the IBM 360/91-style single-issue machine
// referenced in §3.3: per-unit reservation stations, tag-based
// renaming (no WAW or WAR stalls), and a single common data bus.
// cfg.RUUSize, when positive, sets the stations per unit.
func NewTomasulo(cfg Config) (Machine, error) { return core.NewTomasulo(cfg) }

// NewVector builds the vector-extension machine: the CRAY-like
// scalar machine plus a CRAY-1-style vector unit with chaining (§3.2
// discusses exactly this sharing of functional units between scalar
// and vector operations). It is the only machine that accepts vector
// traces; the scalar machines reject them.
func NewVector(cfg Config) (Machine, error) { return core.NewVector(cfg) }

// Kernels returns all 14 Livermore loops in kernel order.
func Kernels() []*Kernel { return loops.All() }

// KernelsByClass returns the loops of one class: the paper's scalar
// set is LFK {5, 6, 11, 13, 14}, the vectorizable set LFK {1, 2, 3,
// 4, 7, 8, 9, 10, 12}.
func KernelsByClass(c KernelClass) []*Kernel { return loops.ByClass(c) }

// GetKernel returns Livermore kernel n (1-14).
func GetKernel(n int) (*Kernel, error) { return loops.Get(n) }

// MustKernel is GetKernel for known-valid numbers; it panics
// otherwise.
func MustKernel(n int) *Kernel {
	k, err := loops.Get(n)
	if err != nil {
		panic(err)
	}
	return k
}

// VectorKernels returns the hand-vectorized codings of the
// representative vectorizable kernels (all nine vectorizable kernels), for use with
// NewVector.
func VectorKernels() []*Kernel { return loops.VectorKernels() }

// VectorKernel returns the vectorized coding of kernel n, if one
// exists.
func VectorKernel(n int) (*Kernel, error) { return loops.VectorKernel(n) }

// ScaledKernel builds a fresh instance of Livermore kernel number
// with loop length n instead of the paper default. Kernel 2 requires
// a power-of-two length and kernel 4 a multiple of five; each kernel
// documents a maximum tied to its memory layout.
func ScaledKernel(number, n int) (*Kernel, error) { return loops.Scaled(number, n) }

// ComputeLimits derives the §4 dataflow and resource bounds of a
// trace under configuration cfg.
func ComputeLimits(t *Trace, cfg Config, mode LimitMode) Limits {
	return limits.Compute(t, cfg.Latencies(), mode)
}

// Steady-state extrapolation: per-loop simulation in O(1) of the
// iteration count. See internal/core for the engine's contract.
type (
	// Extrapolator wraps any Machine with the steady-state
	// extrapolation engine: results stay bit-identical to full
	// simulation whenever the engine engages, and runs it cannot
	// close analytically fall back to a plain delegated run.
	Extrapolator = core.Extrapolator

	// ExtrapolationStats reports what the engine did on the most
	// recent run of an Extrapolator.
	ExtrapolationStats = core.ExtrapolationStats
)

// Extrapolate wraps m with the steady-state extrapolation engine.
//
//	cray, err := mfup.NewBasic(mfup.CRAYLike, mfup.M11BR5)
//	// ... handle err ...
//	r, err := mfup.Extrapolate(cray).RunChecked(k.SharedTrace(), mfup.SimLimits{})
//	// same Result as cray.RunChecked, in O(1) of the iteration count
func Extrapolate(m Machine) *Extrapolator { return core.Extrapolate(m) }

// CanExtrapolate reports whether t satisfies the machine-independent
// prerequisites of the extrapolation engine (a detectable steady-state
// period, enough iterations for the reference ladder, tail address
// identity under reduction). A nil return does not guarantee
// engagement — machine-dependent reasons can still force a fallback.
func CanExtrapolate(t *Trace) error { return core.CanExtrapolate(t) }

// KernelForScale builds kernel number at the largest buildable loop
// length not above n, returning the kernel and the count of virtual
// iterations left over (zero when n itself is buildable). Feed the
// remainder to Extrapolator.WithVirtual via VirtualWindows to account
// for the full n analytically.
func KernelForScale(number, n int) (*Kernel, int64, error) { return loops.ForScale(number, n) }

// VirtualWindows converts extra un-materialized loop iterations of k
// into the body-window count the extrapolation engine must bridge.
func VirtualWindows(k *Kernel, extra int64) (int64, error) { return loops.VirtualWindows(k, extra) }
