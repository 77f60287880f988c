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

// Validate reports whether the configuration is structurally
// possible. The checked constructors call it; the panicking ones
// reach it through their checked twins.
func (c Config) Validate() error {
	if c.MemLatency <= 0 {
		return fmt.Errorf("core: config %s: memory latency must be positive, got %d", c.Name(), c.MemLatency)
	}
	if c.BranchLatency <= 0 {
		return fmt.Errorf("core: config %s: branch latency must be positive, got %d", c.Name(), c.BranchLatency)
	}
	if c.IssueUnits < 0 {
		return fmt.Errorf("core: config %s: negative issue units %d", c.Name(), c.IssueUnits)
	}
	if c.RUUSize < 0 {
		return fmt.Errorf("core: config %s: negative RUU size %d", c.Name(), c.RUUSize)
	}
	if c.MemBanks < 0 {
		return fmt.Errorf("core: config %s: negative memory bank count %d", c.Name(), c.MemBanks)
	}
	if c.BusCount < 0 {
		return fmt.Errorf("core: config %s: negative result-bus count %d", c.Name(), c.BusCount)
	}
	for u := 0; u < isa.NumUnits; u++ {
		if c.FULat[u] < 0 {
			return fmt.Errorf("core: config %s: negative latency override %d for %s", c.Name(), c.FULat[u], isa.Unit(u))
		}
		if c.FULat[u] > 0 && (isa.Unit(u) == isa.Memory || isa.Unit(u) == isa.Branch) {
			return fmt.Errorf("core: config %s: %s latency is a machine parameter; set MemLatency/BranchLatency, not FULat", c.Name(), isa.Unit(u))
		}
		if c.FUCount[u] < 0 {
			return fmt.Errorf("core: config %s: negative copy count %d for %s", c.Name(), c.FUCount[u], isa.Unit(u))
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
// counts. Implementations are single-use-at-a-time but reusable:
// Run and RunChecked fully reset internal state.
//
// RunChecked is the fault-tolerant entry point: the run is bounded by
// lim (cycle budget, no-forward-progress watchdog, wall-clock
// deadline) and every failure — including an unsimulatable trace —
// comes back as a *SimError rather than a panic. Run is the legacy
// unlimited form; it panics on unsimulatable traces and is kept as a
// thin wrapper over RunChecked with zero Limits.
//
// Concurrency contract: machines are stateful and NOT safe for
// concurrent use — one instance must never execute Run on two
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
// branch per event site (machines that duplicate their hot loop for
// observation fork once per run instead). Like the machine itself, an
// attached probe or recorder is driven from the running goroutine and
// must not be shared across concurrently running machines.
type Machine interface {
	Name() string
	Run(t *trace.Trace) Result
	RunChecked(t *trace.Trace, lim Limits) (Result, error)
	SetProbe(p probe.Probe)
	SetRecorder(r *events.Recorder)
}
