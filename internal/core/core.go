// Package core contains the paper's machine models: the cycle-level
// timing simulators whose instruction issue rates the study compares.
//
// All machines are trace driven. A dynamic instruction trace
// (internal/trace) fixes what executes; a machine model decides only
// *when* each instruction issues and completes, under its particular
// issue rules, functional-unit organization, memory organization, and
// result-bus interconnect. The machines are:
//
//   - Simple: two-stage serial machine; one instruction in execution
//     at a time (§3.1).
//   - SerialMemory: overlap across distinct functional units, but
//     every unit — including memory — handles one operation at a time
//     (§3.2).
//   - NonSegmented: like SerialMemory with an interleaved (pipelined)
//     memory; functional units remain unsegmented, as in the CDC 6600
//     (§3.2).
//   - CRAYLike: interleaved memory and fully segmented functional
//     units, as in the CRAY-1 (§3.2).
//   - MultiIssue: CRAY-like functional units with N issue stations
//     and strictly in-order issue (§5.1).
//   - MultiIssueOOO: N issue stations with out-of-order issue within
//     the instruction buffer (§5.2).
//   - RUU: N issue units with dependency resolution and register
//     renaming through a Register Update Unit (§5.3).
//   - Scoreboard and Tomasulo: the single-issue dependency-resolution
//     machines §3.3 cites (CDC 6600, IBM 360/91).
//   - Vector: the CRAY-like machine plus a chaining vector unit, an
//     extension beyond the paper.
package core

import (
	"fmt"

	"mfup/internal/bus"
	"mfup/internal/events"
	"mfup/internal/fu"
	"mfup/internal/isa"
	"mfup/internal/probe"
	"mfup/internal/trace"
)

// Config carries the machine parameters the paper varies.
type Config struct {
	// MemLatency is the memory access time in cycles: 11 in the base
	// CRAY-1 model ("slow memory"), 5 with fast intermediate storage
	// ("fast memory").
	MemLatency int

	// BranchLatency is the branch execution time in cycles: 5 for the
	// CRAY-1S-style slow branch, 2 for the fast branch.
	BranchLatency int

	// IssueUnits is the number of issue stations/units for the
	// multiple-issue machines. Single-issue machines ignore it.
	IssueUnits int

	// Bus selects the result-bus interconnect for the multiple-issue
	// machines.
	Bus bus.Kind

	// RUUSize is the number of Register Update Unit entries for the
	// RUU machine.
	RUUSize int

	// PerfectBranches is an upper-bound ablation: branches are
	// predicted perfectly and never block the issue stage (the paper
	// deliberately models NO prediction — §2: "we have not
	// incorporated any type of guessing or branch prediction"). A
	// branch still occupies one issue slot. Use this to measure how
	// much of the remaining blockage is control dependences.
	PerfectBranches bool

	// MemBanks enables the banked interleaved-memory extension
	// (internal/mem): 0 models the paper's ideal interleaved memory;
	// B > 0 models B address-interleaved banks, each busy for the
	// access time of a request it serves. Ignored by machines whose
	// memory is serial anyway.
	MemBanks int

	// FULat overrides the fixed per-class functional-unit latencies
	// (internal/isa): entry u > 0 replaces unit u's latency; entry 0
	// keeps the CRAY-1 reference value. Memory and Branch entries must
	// stay zero — those latencies are MemLatency and BranchLatency.
	// The zero value therefore reproduces the paper's machines exactly.
	FULat [isa.NumUnits]int

	// FUCount replicates functional-unit classes: entry u > 1 gives
	// the machine that many identical copies of unit u sharing one
	// dispatch port; entries 0 and 1 both mean the base architecture's
	// single copy.
	FUCount [isa.NumUnits]int

	// BusCount sizes the crossbar interconnect's shared result-bus
	// capacity independently of the station count: 0 keeps the paper's
	// one-bus-per-station crossbar. Contradictory for BusN/Bus1, whose
	// bus counts are implied by the kind.
	BusCount int
}

// The paper's four machine variations: memory access time crossed
// with branch execution time.
var (
	M11BR5 = Config{MemLatency: 11, BranchLatency: 5}
	M11BR2 = Config{MemLatency: 11, BranchLatency: 2}
	M5BR5  = Config{MemLatency: 5, BranchLatency: 5}
	M5BR2  = Config{MemLatency: 5, BranchLatency: 2}
)

// BaseConfigs returns the paper's four variations in table order.
func BaseConfigs() []Config { return []Config{M11BR5, M11BR2, M5BR5, M5BR2} }

// Name returns the paper's name for the memory/branch combination,
// e.g. "M11BR5".
func (c Config) Name() string {
	return fmt.Sprintf("M%dBR%d", c.MemLatency, c.BranchLatency)
}

// Latencies returns the functional-unit latency table for this
// configuration: the CRAY-1 reference table with the memory and
// branch machine parameters applied, then any per-unit FULat
// overrides.
func (c Config) Latencies() isa.Latencies {
	l := isa.NewLatencies(c.MemLatency, c.BranchLatency)
	for u, cycles := range c.FULat {
		if cycles > 0 {
			l = l.WithOverride(isa.Unit(u), cycles)
		}
	}
	return l
}

// newPool builds the functional-unit pool for this configuration:
// the latency table plus any per-class replication. Segmentation is
// an organization property, so the caller sets it.
func (c Config) newPool() *fu.Pool {
	p := fu.NewPool(c.Latencies())
	for u, n := range c.FUCount {
		if n > 1 {
			p.SetCount(isa.Unit(u), n)
		}
	}
	return p
}

// horizon is the furthest ahead of its issue cycle an operation can
// complete: the largest latency in the configuration's table. The
// cycle-indexed rings are sized from it (bus.RingSize).
func (c Config) horizon() int {
	l := c.Latencies()
	return l.Max()
}

// newBusTracker builds the result-bus tracker for the multiple-issue
// machines: IssueUnits stations under the Bus organization, with
// BusCount shared crossbar buses (0 = one per station).
func (c Config) newBusTracker() (*bus.Tracker, error) {
	return bus.NewTracker(c.Bus, c.IssueUnits, c.BusCount, c.horizon())
}

// WithIssue returns c with the multiple-issue parameters set.
func (c Config) WithIssue(units int, kind bus.Kind) Config {
	c.IssueUnits = units
	c.Bus = kind
	return c
}

// WithRUU returns c with the RUU size set.
func (c Config) WithRUU(size int) Config {
	c.RUUSize = size
	return c
}

// WithPerfectBranches returns c with the ideal-branch-prediction
// ablation enabled.
func (c Config) WithPerfectBranches() Config {
	c.PerfectBranches = true
	return c
}

// WithMemBanks returns c with the banked-memory extension enabled.
func (c Config) WithMemBanks(banks int) Config {
	c.MemBanks = banks
	return c
}

// The largest configuration a constructor builds, so that sizes and
// latencies taken from an untrusted request can neither exhaust memory
// nor wrap the clock. They are fixed limits, not options.
const (
	// MaxLatency bounds every latency. An instruction holds the clock
	// back by about one latency at most, and a trace that fits in
	// memory has under 1<<27 operations (the binary trace cap), so
	// cycle counts stay below about 1<<57, far from int64's 1<<63.
	MaxLatency = 1 << 30

	// The sizes keep the largest machine of each kind under 64 MiB at
	// construction: the N-Bus tracker holds up to 64 KiB of ring per
	// issue unit, an RUU entry about 100 bytes, a bank or unit copy 8.
	MaxIssueUnits = 256
	MaxRUUSize    = 1 << 16 // RUU entries, or Tomasulo stations per unit
	MaxMemBanks   = 1 << 16
	MaxUnitCopies = 1 << 10 // FUCount; a dispatch scans every copy
)

// Validate reports whether the configuration is structurally possible
// and within the bounds above. Every constructor calls it.
func (c Config) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("core: config %s: "+format, append([]any{c.Name()}, args...)...)
	}
	switch {
	case c.MemLatency <= 0:
		return bad("memory latency must be positive, got %d", c.MemLatency)
	case c.MemLatency > MaxLatency:
		return bad("memory latency %d exceeds the limit of %d cycles", c.MemLatency, MaxLatency)
	case c.BranchLatency <= 0:
		return bad("branch latency must be positive, got %d", c.BranchLatency)
	case c.BranchLatency > MaxLatency:
		return bad("branch latency %d exceeds the limit of %d cycles", c.BranchLatency, MaxLatency)
	case c.IssueUnits < 0:
		return bad("negative issue units %d", c.IssueUnits)
	case c.IssueUnits > MaxIssueUnits:
		return bad("%d issue units exceed the limit of %d", c.IssueUnits, MaxIssueUnits)
	case c.RUUSize < 0:
		return bad("negative RUU size %d", c.RUUSize)
	case c.RUUSize > MaxRUUSize:
		return bad("RUU size %d exceeds the limit of %d entries", c.RUUSize, MaxRUUSize)
	case c.MemBanks < 0:
		return bad("negative memory bank count %d", c.MemBanks)
	case c.MemBanks > MaxMemBanks:
		return bad("memory bank count %d exceeds the limit of %d", c.MemBanks, MaxMemBanks)
	case c.BusCount < 0:
		return bad("negative result-bus count %d", c.BusCount)
	}
	for u := 0; u < isa.NumUnits; u++ {
		switch unit, lat, n := isa.Unit(u), c.FULat[u], c.FUCount[u]; {
		case lat < 0:
			return bad("negative latency override %d for %s", lat, unit)
		case lat > MaxLatency:
			return bad("latency override %d for %s exceeds the limit of %d cycles", lat, unit, MaxLatency)
		case lat > 0 && (unit == isa.Memory || unit == isa.Branch):
			return bad("%s latency is a machine parameter; set MemLatency/BranchLatency, not FULat", unit)
		case n < 0:
			return bad("negative copy count %d for %s", n, unit)
		case n > MaxUnitCopies:
			return bad("copy count %d for %s exceeds the limit of %d", n, unit, MaxUnitCopies)
		}
	}
	return nil
}

// Result reports one simulation run.
type Result struct {
	Machine      string
	Trace        string
	Instructions int64
	Cycles       int64
}

// IssueRate returns instructions issued per clock cycle, the paper's
// performance measure.
func (r Result) IssueRate() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// String renders the result compactly.
func (r Result) String() string {
	return fmt.Sprintf("%s on %s: %d instructions, %d cycles, %.2f/cycle",
		r.Machine, r.Trace, r.Instructions, r.Cycles, r.IssueRate())
}

// Machine is a timing model: it runs a trace and reports cycle
// counts. Each machine has one constructor (NewBasic, NewScoreboard,
// NewTomasulo, NewMultiIssue, NewMultiIssueOOO, NewRUU, NewVector),
// which returns an error for a configuration it cannot build, and one
// run method, RunChecked, which bounds the run by lim (cycle budget,
// no-forward-progress watchdog, wall-clock deadline) and reports every
// failure — including an unsimulatable trace — as a *SimError. Machines
// are single-use-at-a-time but reusable: RunChecked fully resets
// internal state.
//
// Concurrency contract: machines are stateful and NOT safe for
// concurrent use — one instance must never execute RunChecked on two
// goroutines at once. To run cells of an experiment grid in parallel,
// construct a fresh machine per goroutine (internal/runner encodes
// this by taking constructors, not instances). Traces, by contrast,
// are shared freely: a Trace and its Prepared decode cache are
// immutable during simulation, so any number of machines may run the
// same trace concurrently.
// Observability contract: SetProbe attaches a probe (internal/probe)
// that the machine notifies of issues, attributed stalls, writebacks,
// and branch resolutions during subsequent runs; SetProbe(nil)
// detaches it. SetRecorder likewise attaches an event recorder
// (internal/events) capturing each instruction's lifecycle — fetch,
// buffer allocation, issue, functional-unit occupancy, result-bus
// acquisition, writeback, branch resolution, commit — with cycle
// timestamps; SetRecorder(nil) detaches it. Probe and recorder are
// independent: either, both, or neither may be attached. Neither ever
// changes timing — simulated cycle counts are identical observed and
// unobserved — and each nil default costs only a predicted-not-taken
// branch per event site: every machine runs one loop, observed or not.
// Like the machine itself, an attached probe or recorder is driven from
// the running goroutine and must not be shared across concurrently
// running machines.
type Machine interface {
	Name() string
	RunChecked(t *trace.Trace, lim Limits) (Result, error)
	SetProbe(p probe.Probe)
	SetRecorder(r *events.Recorder)
}

// UnitsRefused reports every functional-unit class m's pool was busy
// for when m asked for it, over every run m has made (fu.Pool.Refused),
// looking through an Extrapolator to the machine it runs. ok is false
// for a machine without a pool.
func UnitsRefused(m Machine) (units fu.UnitSet, ok bool) {
	if e, wrapped := m.(*Extrapolator); wrapped {
		m = e.inner
	}
	f, ok := m.(forker)
	if !ok || f.units() == nil {
		return 0, false
	}
	return f.units().Refused(), true
}
