package probe

import (
	"fmt"
	"strings"

	"mfup/internal/isa"
)

// FUStat aggregates one functional unit's work over the probed runs.
type FUStat struct {
	// Ops is the number of operations the unit executed.
	Ops int64

	// Busy is the total cycles the unit spent occupied by them.
	Busy int64
}

// Counters is the accumulating Probe: per-reason stall slots, per-FU
// busy totals, an in-flight-buffer occupancy histogram, and the slot
// arithmetic tying them together. One Counters may observe any number
// of consecutive runs (e.g. every loop of a harmonic-mean cell); the
// totals accumulate across them.
type Counters struct {
	// Machine and Trace name the most recent run observed.
	Machine string
	Trace   string

	// Runs counts completed runs.
	Runs int

	// Width is the issue width of the probed machine (slots per
	// cycle); Capacity its in-flight buffer size, 0 if bufferless.
	Width    int
	Capacity int

	// Issued is the total instructions issued; Cycles the total
	// simulated cycles; Slots the total issue slots (Cycles x Width,
	// summed per run).
	Issued int64
	Cycles int64
	Slots  int64

	// Stalls holds the per-reason stall slots. Stalls[ReasonDrain] is
	// derived at End: the slots neither issued nor attributed.
	Stalls [NumReasons]int64

	// FU aggregates per-functional-unit work.
	FU [isa.NumUnits]FUStat

	// OccupancyHist[level] is the number of cycles the machine spent
	// with level instructions in flight in its buffer (only
	// cycle-stepped buffer machines report it; empty otherwise).
	OccupancyHist []int64

	// Branches counts branch resolutions.
	Branches int64
}

var _ Probe = (*Counters)(nil)

// Begin records the run's identity and slot geometry.
func (c *Counters) Begin(machine, trace string, width, capacity int) {
	c.Machine = machine
	c.Trace = trace
	c.Width = width
	if capacity > c.Capacity {
		c.Capacity = capacity
	}
}

// Issue accumulates issued instructions.
func (c *Counters) Issue(cycle int64, n int64) { c.Issued += n }

// Stall accumulates slots against reason r.
func (c *Counters) Stall(cycle int64, r Reason, slots int64) { c.Stalls[r] += slots }

// Writeback accumulates unit work.
func (c *Counters) Writeback(cycle int64, u isa.Unit, busy int64) {
	c.FU[u].Ops++
	c.FU[u].Busy += busy
}

// BranchResolve counts the resolution.
func (c *Counters) BranchResolve(cycle int64) { c.Branches++ }

// Occupancy accumulates the occupancy histogram.
func (c *Counters) Occupancy(level int, cycles int64) {
	if level >= len(c.OccupancyHist) {
		grown := make([]int64, level+1)
		copy(grown, c.OccupancyHist)
		c.OccupancyHist = grown
	}
	c.OccupancyHist[level] += cycles
}

// End closes a run of the given cycle count and re-derives the drain
// remainder so that Issued + sum(Stalls) == Slots always holds.
func (c *Counters) End(cycles int64) {
	c.Runs++
	c.Cycles += cycles
	c.Slots += cycles * int64(c.Width)
	var attributed int64
	for r := ReasonRAW; r < ReasonDrain; r++ {
		attributed += c.Stalls[r]
	}
	c.Stalls[ReasonDrain] = c.Slots - c.Issued - attributed
}

// Clone returns a copy of c with its own occupancy histogram: what a
// copied run's probe starts from.
func (c *Counters) Clone() *Counters {
	d := *c
	d.OccupancyHist = append([]int64(nil), c.OccupancyHist...)
	return &d
}

// StallTotal returns the slots lost to all reasons, drain included.
func (c *Counters) StallTotal() int64 {
	var total int64
	for _, s := range c.Stalls {
		total += s
	}
	return total
}

// Check verifies the accounting invariant the machines guarantee:
// every issue slot is an issue or exactly one attributed stall —
// Issued + sum(Stalls) == Slots — and no counter has gone negative
// (a negative derived drain means a machine over-attributed).
func (c *Counters) Check() error {
	if c.Issued < 0 || c.Cycles < 0 || c.Slots < 0 {
		return fmt.Errorf("probe: negative totals (issued %d, cycles %d, slots %d)", c.Issued, c.Cycles, c.Slots)
	}
	for r, s := range c.Stalls {
		if s < 0 {
			return fmt.Errorf("probe: %s stall count is negative (%d): over-attributed slots", Reason(r), s)
		}
	}
	if got := c.Issued + c.StallTotal(); got != c.Slots {
		return fmt.Errorf("probe: issued %d + stalls %d = %d slots accounted, machine reported %d",
			c.Issued, c.StallTotal(), got, c.Slots)
	}
	return nil
}

// String renders a one-line breakdown, stall slots by reason.
func (c *Counters) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d issued / %d slots", c.Machine, c.Issued, c.Slots)
	for r, s := range c.Stalls {
		if s != 0 {
			fmt.Fprintf(&b, ", %s %d", Reason(r), s)
		}
	}
	return b.String()
}
