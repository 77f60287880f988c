// Package loops provides the benchmark programs of the paper: the
// first 14 Lawrence Livermore Loops (McMahon's FORTRAN kernels),
// hand-compiled to the CRAY-like assembly language of internal/asm
// and executed as scalar code.
//
// Following the paper, the kernels are divided into the 5 scalar
// loops (5, 6, 11, 13, 14) and the 9 vectorizable loops (1, 2, 3, 4,
// 7, 8, 9, 10, 12); "vectorizable" refers to the parallelism inherent
// in the loop, not to the generated code — everything here is scalar.
//
// Each kernel carries a pure-Go reference implementation. The
// reference computes the same floating-point operations in the same
// association order as the assembly, so the emulated results must
// match bit for bit; Check enforces that, which validates both the
// hand compilation and the emulator.
package loops

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"mfup/internal/asm"
	"mfup/internal/emu"
	"mfup/internal/isa"
	"mfup/internal/trace"
)

// Class partitions the kernels as the paper does.
type Class uint8

// Kernel classes.
const (
	Scalar Class = iota
	Vectorizable
)

// String names the class as the paper does.
func (c Class) String() string {
	if c == Scalar {
		return "Scalar"
	}
	return "Vectorizable"
}

// Kernel is one Livermore loop: its program, its data, and its
// validation oracle.
type Kernel struct {
	Number int    // Livermore kernel number, 1-14
	Name   string // traditional kernel name
	Class  Class
	N      int // principal loop length

	prog *isa.Program

	// init lays out the kernel's input data in fresh machine memory.
	init func(m *emu.Machine)

	// check validates machine state after emulation against the
	// pure-Go reference computation.
	check func(m *emu.Machine) error

	traceOnce   sync.Once
	cachedTrace *trace.Trace
}

// Program returns the kernel's assembled program.
func (k *Kernel) Program() *isa.Program { return k.prog }

// String returns e.g. "LFK 5 (tri-diagonal elimination)".
func (k *Kernel) String() string {
	return fmt.Sprintf("LFK %d (%s)", k.Number, k.Name)
}

// memoryWords sizes a kernel's emulator memory: 1 MiB, enough for
// every kernel's layout at its maximum loop length (the largest, LFK
// 9's 25 x 4000 words at 0x1000, ends at word 104,095), where emu's
// default is 8 MiB.
const memoryWords = 1 << 17

// NewMachine returns a fresh emulator machine with the kernel's input
// data laid out in memory.
func (k *Kernel) NewMachine() *emu.Machine {
	m := emu.New(memoryWords)
	k.init(m)
	return m
}

// Validate checks a machine's state against the kernel's reference
// results. Use it to verify that a transformed version of the
// kernel's program (for example, one reordered by internal/sched)
// still computes the right answers: run the transformed program on
// NewMachine() and call Validate on the result.
func (k *Kernel) Validate(m *emu.Machine) error {
	return k.check(m)
}

// Trace executes the kernel and returns its dynamic instruction
// trace, after validating the numeric results against the reference
// implementation. The trace is recomputed on every call; callers that
// need it repeatedly should cache it.
func (k *Kernel) Trace() (*trace.Trace, error) {
	m := k.NewMachine()
	t, err := m.Run(k.prog)
	if err != nil {
		return nil, fmt.Errorf("loops: %s: %w", k, err)
	}
	if err := k.check(m); err != nil {
		return nil, fmt.Errorf("loops: %s: validation: %w", k, err)
	}
	return t, nil
}

// MustTrace is Trace but panics on error; the built-in kernels are
// statically known-good, so an error is a bug in this repository.
func (k *Kernel) MustTrace() *trace.Trace {
	t, err := k.Trace()
	if err != nil {
		panic(err)
	}
	return t
}

// SharedTrace returns a lazily computed, cached trace of the kernel.
// The machine models never mutate traces, so one copy can drive any
// number of simulations; the table and benchmark harnesses use this
// to avoid re-emulating the kernels for every configuration.
func (k *Kernel) SharedTrace() *trace.Trace {
	k.traceOnce.Do(func() { k.cachedTrace = k.MustTrace() })
	return k.cachedTrace
}

// registry of all kernels, keyed by kernel number.
var registry = map[int]*Kernel{}

// builder constructs a kernel at loop length n; it returns the kernel
// (program not yet assembled), its assembly source, or an error for
// unsupported n.
type builder func(n int) (*Kernel, string, error)

// builders holds each kernel's constructor, its paper-default loop
// length, and the loop-length bounds its memory layout supports;
// Scaled rebuilds kernels at other lengths from these.
var builders = map[int]struct {
	defaultN   int
	minN, maxN int
	build      builder
}{}

// initErr accumulates kernel registration failures. Registration runs
// during package init, where a panic would take down any importer
// before main; failures are instead recorded here and surfaced by
// InitErr and by Get/VectorKernel lookups of the affected kernels.
var initErr error

// InitErr reports every failure encountered while registering the
// built-in kernels, or nil when all registered cleanly.
func InitErr() error { return initErr }

func recordInitErr(err error) { initErr = errors.Join(initErr, err) }

// registerBuilder installs a kernel builder with the loop-length
// bounds [minN, maxN] its memory layout supports, and registers the
// default-length instance. Called from each kernel file's init; a
// failure is recorded in InitErr rather than panicking, and the
// kernel is simply absent from the registry.
func registerBuilder(number, defaultN, minN, maxN int, b builder) {
	if _, dup := builders[number]; dup {
		recordInitErr(fmt.Errorf("loops: duplicate kernel %d", number))
		return
	}
	builders[number] = struct {
		defaultN   int
		minN, maxN int
		build      builder
	}{defaultN, minN, maxN, b}
	k, err := buildAt(number, defaultN)
	if err != nil {
		recordInitErr(err)
		return
	}
	registry[number] = k
}

// buildAt constructs kernel number at loop length n.
func buildAt(number, n int) (*Kernel, error) {
	b, ok := builders[number]
	if !ok {
		return nil, fmt.Errorf("loops: no kernel %d (have 1-14)", number)
	}
	if n < b.minN || n > b.maxN {
		return nil, fmt.Errorf("loops: kernel %d: loop length %d outside [%d, %d]",
			number, n, b.minN, b.maxN)
	}
	k, source, err := b.build(n)
	if err != nil {
		return nil, fmt.Errorf("loops: kernel %d: %w", number, err)
	}
	prog, err := asm.Assemble(fmt.Sprintf("lfk%02d", number), source)
	if err != nil {
		return nil, fmt.Errorf("loops: kernel %d: %w", number, err)
	}
	k.prog = prog
	return k, nil
}

// Scaled builds a fresh instance of kernel number with loop length n
// instead of the paper default. Loop length changes only the amount
// of data and the trip counts, never the loop body, so issue rates
// are expected to be nearly independent of n (a steady-state
// property); the test suite verifies that. Kernel 2 requires n to be
// a power of two; every kernel has a documented maximum tied to its
// memory layout.
func Scaled(number, n int) (*Kernel, error) {
	return buildAt(number, n)
}

// DefaultN returns the paper-default loop length of kernel number.
func DefaultN(number int) (int, error) {
	b, ok := builders[number]
	if !ok {
		return 0, fmt.Errorf("loops: no kernel %d (have 1-14)", number)
	}
	return b.defaultN, nil
}

// Bounds returns the loop-length range kernel number's memory layout
// supports. Some kernels constrain the length further (kernel 2 needs
// a power of two, kernel 4 a multiple of five); those are reported by
// Scaled, not here.
func Bounds(number int) (minN, maxN int, err error) {
	b, ok := builders[number]
	if !ok {
		return 0, 0, fmt.Errorf("loops: no kernel %d (have 1-14)", number)
	}
	return b.minN, b.maxN, nil
}

// maxScaleTries bounds ForScale's downward search for a buildable
// length. The largest gap between valid lengths of any kernel is 512
// (kernel 2's powers of two below 1024), so 1024 attempts always
// suffice.
const maxScaleTries = 1024

// ForScale builds kernel number for a requested loop length n,
// materializing the largest buildable length <= n: the layout maximum
// caps it, and kernel-specific constraints (kernel 2's power of two,
// kernel 4's multiple of five) are resolved by searching downward.
// extra is the iteration count left unmaterialized (zero when n was
// buildable as-is). Callers that can account for iterations
// analytically — the steady-state extrapolation engine, via
// VirtualWindows — pass extra on; others should treat extra > 0 as
// out of range.
func ForScale(number, n int) (k *Kernel, extra int64, err error) {
	b, ok := builders[number]
	if !ok {
		return nil, 0, fmt.Errorf("loops: no kernel %d (have 1-14)", number)
	}
	if n < b.minN {
		return nil, 0, fmt.Errorf("loops: kernel %d: loop length %d below minimum %d",
			number, n, b.minN)
	}
	mat := n
	if mat > b.maxN {
		mat = b.maxN
	}
	for try := 0; mat >= b.minN && try < maxScaleTries; mat, try = mat-1, try+1 {
		k, err = buildAt(number, mat)
		if err == nil {
			return k, int64(n - mat), nil
		}
	}
	return nil, 0, fmt.Errorf("loops: kernel %d: no buildable length <= %d: %w", number, n, err)
}

// VirtualWindows converts the unmaterialized remainder of a ForScale
// request into steady-state body windows for the extrapolation
// engine: the kernel's windows-per-iteration slope times extra. The
// window count of a counted loop is affine in its trip count, so the
// slope measured between k and a build a few iterations shorter is
// exact; kernels with no detectable steady state (data-dependent
// control flow) cannot be extended analytically and return an error,
// as does a negative extra.
func VirtualWindows(k *Kernel, extra int64) (int64, error) {
	if extra < 0 {
		return 0, fmt.Errorf("loops: %s: negative extra iteration count %d", k, extra)
	}
	if extra == 0 {
		return 0, nil
	}
	pd := k.SharedTrace().Prepared().Period()
	if pd == nil {
		return 0, fmt.Errorf("loops: %s: no steady-state period; cannot extend past %d materialized iterations", k, k.N)
	}
	for step := 1; step <= 8; step++ {
		prev, err := buildAt(k.Number, k.N-step)
		if err != nil {
			continue
		}
		pdPrev := prev.MustTrace().Prepared().Period()
		if pdPrev == nil || pdPrev.Span != pd.Span {
			break
		}
		dw := pd.Iterations() - pdPrev.Iterations()
		if dw <= 0 || dw%step != 0 {
			break
		}
		slope := int64(dw / step)
		if extra > math.MaxInt64/slope {
			return 0, fmt.Errorf("loops: %s: %d extra iterations of %d windows each overflow int64", k, extra, slope)
		}
		return extra * slope, nil
	}
	return 0, fmt.Errorf("loops: %s: window slope not measurable; cannot extend past %d materialized iterations", k, k.N)
}

// Get returns kernel n (1-14), or an error for unknown numbers.
func Get(n int) (*Kernel, error) {
	k, ok := registry[n]
	if !ok {
		if initErr != nil {
			return nil, fmt.Errorf("loops: no kernel %d (registration failures: %w)", n, initErr)
		}
		return nil, fmt.Errorf("loops: no kernel %d (have 1-14)", n)
	}
	return k, nil
}

// All returns all 14 kernels in kernel-number order.
func All() []*Kernel {
	ks := make([]*Kernel, 0, len(registry))
	for _, k := range registry {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].Number < ks[j].Number })
	return ks
}

// ByClass returns the kernels of one class in kernel-number order.
// The paper's scalar set is {5, 6, 11, 13, 14}; the vectorizable set
// is {1, 2, 3, 4, 7, 8, 9, 10, 12}.
func ByClass(c Class) []*Kernel {
	var ks []*Kernel
	for _, k := range All() {
		if k.Class == c {
			ks = append(ks, k)
		}
	}
	return ks
}

// ---------------------------------------------------------------------
// Shared data-generation and validation helpers.

// lcg is a small deterministic linear congruential generator used to
// fill input arrays. Values are reproducible across runs so that
// traces — and therefore all simulation results — are deterministic.
type lcg struct{ state uint64 }

func newLCG(seed uint64) *lcg { return &lcg{state: seed*2862933555777941757 + 3037000493} }

func (g *lcg) next() uint64 {
	g.state = g.state*6364136223846793005 + 1442695040888963407
	return g.state
}

// float returns a deterministic value in (0.5, 1.5); the offset keeps
// products and sums well away from denormals and overflow across
// thousands of operations.
func (g *lcg) float() float64 {
	return 0.5 + float64(g.next()>>11)/(1<<53)
}

// fillFloats stores n generated floats at base and returns them.
func fillFloats(m *emu.Machine, g *lcg, base int64, n int) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = g.float()
		m.SetFloat(base+int64(i), vals[i])
	}
	return vals
}

// checkFloats compares n memory words at base against want, requiring
// bit-exact equality (the references replicate the assembly's
// operation order).
func checkFloats(m *emu.Machine, what string, base int64, want []float64) error {
	for i, w := range want {
		got := m.Float(base + int64(i))
		if math.Float64bits(got) != math.Float64bits(w) {
			return fmt.Errorf("%s[%d]: got %v, want %v", what, i, got, w)
		}
	}
	return nil
}

// checkFloat compares a single scalar result.
func checkFloat(got float64, what string, want float64) error {
	if math.Float64bits(got) != math.Float64bits(want) {
		return fmt.Errorf("%s: got %v, want %v", what, got, want)
	}
	return nil
}
