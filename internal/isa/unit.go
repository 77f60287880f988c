package isa

import "fmt"

// Unit identifies a hardware functional-unit class. The base machine
// has exactly one unit of each class; whether a unit is segmented
// (pipelined) and whether the memory "unit" is interleaved are
// properties of the machine organization, not of the ISA, and live in
// the timing models.
type Unit uint8

// Functional-unit classes of the base architecture. Latencies follow
// the CRAY-1 hardware reference manual; Memory and Branch latencies
// are machine parameters (11/5 and 5/2 cycles) and therefore have no
// fixed entry here.
const (
	AddrAdd       Unit = iota // address add/subtract, 2 cycles
	AddrMul                   // address multiply, 6 cycles
	ScalarAdd                 // scalar integer add/subtract, 3 cycles
	ScalarShift               // scalar shift, 2 cycles
	ScalarLogical             // scalar mask/merge/boolean, 1 cycle
	PopLZ                     // population / leading-zero count, 3 cycles
	FloatAdd                  // floating add/subtract, 6 cycles
	FloatMul                  // floating multiply, 7 cycles
	Recip                     // reciprocal approximation, 14 cycles
	Transfer                  // immediates, A<->S and B/T moves, 1 cycle
	Memory                    // loads and stores, 11 or 5 cycles
	Branch                    // jumps, 5 or 2 cycles

	// NumUnits is the number of functional-unit classes.
	NumUnits = int(Branch) + 1
)

var unitNames = [NumUnits]string{
	"AddrAdd", "AddrMul", "ScalarAdd", "ScalarShift", "ScalarLogical",
	"PopLZ", "FloatAdd", "FloatMul", "Recip", "Transfer", "Memory",
	"Branch",
}

// String returns the unit class name.
func (u Unit) String() string {
	if int(u) < NumUnits {
		return unitNames[u]
	}
	return fmt.Sprintf("Unit(%d)", uint8(u))
}

// fixedLatency holds the cycle counts of the units whose timing does
// not vary across the machine organizations studied in the paper.
var fixedLatency = [NumUnits]int{
	AddrAdd:       2,
	AddrMul:       6,
	ScalarAdd:     3,
	ScalarShift:   2,
	ScalarLogical: 1,
	PopLZ:         3,
	FloatAdd:      6,
	FloatMul:      7,
	Recip:         14,
	Transfer:      1,
	Memory:        0, // machine parameter
	Branch:        0, // machine parameter
}

// Latencies maps every functional-unit class to its latency in clock
// cycles for one machine variation. The paper's four variations are
// the cross product of memory access time (11 or 5) and branch
// execution time (5 or 2).
type Latencies struct {
	table [NumUnits]int
}

// NewLatencies builds the latency table for a machine with the given
// memory access time and branch execution time.
func NewLatencies(memory, branch int) Latencies {
	if memory <= 0 || branch <= 0 {
		panic(fmt.Sprintf("isa: non-positive latency (memory=%d, branch=%d)", memory, branch))
	}
	l := Latencies{table: fixedLatency}
	l.table[Memory] = memory
	l.table[Branch] = branch
	return l
}

// Of returns the latency of unit u: the number of cycles from the
// cycle an operation enters the unit until its result is available.
// Every machine looks a latency up on each dispatch, so the receiver
// is a pointer: the lookup indexes the table in place instead of
// copying it.
func (l *Latencies) Of(u Unit) int { return l.table[u] }

// Max returns the largest latency in the table: the furthest ahead of
// its issue cycle that any operation completes.
func (l *Latencies) Max() int {
	m := 0
	for _, c := range l.table {
		m = max(m, c)
	}
	return m
}

// DefaultLatency returns the fixed base-architecture latency of unit
// u, or 0 for the machine-parameter units (Memory, Branch), whose
// timing is set per machine via NewLatencies.
func DefaultLatency(u Unit) int { return fixedLatency[u] }

// ParseUnit resolves a functional-unit class by its String name
// ("FloatAdd", "Memory", ...).
func ParseUnit(name string) (Unit, error) {
	for i, n := range unitNames {
		if n == name {
			return Unit(i), nil
		}
	}
	return 0, fmt.Errorf("isa: unknown functional-unit class %q", name)
}

// WithOverride returns a copy of l with unit u's latency replaced by
// cycles. It is the design-space knob behind core.Config.FULat: the
// base table stays the CRAY-1 reference, and a study that asks "what
// if the floating multiplier took 4 cycles" overrides exactly that
// entry. Non-positive cycles panic, like NewLatencies.
func (l Latencies) WithOverride(u Unit, cycles int) Latencies {
	if cycles <= 0 {
		panic(fmt.Sprintf("isa: non-positive latency override for %s: %d", u, cycles))
	}
	l.table[u] = cycles
	return l
}
