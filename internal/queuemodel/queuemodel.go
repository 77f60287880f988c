// Package queuemodel is the analytic cross-check of the simulator: a
// queueing-network estimate of the issue rate a machine definition can
// sustain on a given instruction mix, computed in microseconds instead
// of a simulation run.
//
// The machine is modeled as a network of M/M/c service centers — one
// per functional-unit class, plus the issue stage, the result-bus
// interconnect, the banked memory, and a branch-shadow center for the
// in-order control dependency every machine in the suite has. Each
// center has c servers (a depth-L pipeline with k copies contributes
// c = k*L servers of service time L, so its capacity is k initiations
// per cycle; a non-segmented unit contributes c = k servers of service
// time L, capacity k/L). The sustainable rate is the saturation point
// of the bottleneck center; machines with a finite instruction window
// (the RUU) are further constrained by Little's law, with Erlang-C
// queueing delays filling out the residence time.
//
// The estimate is deliberately coarse — it knows the mix but not the
// dependence structure, so it is an optimistic bound, not a predictor
// of exact rates. Its job in the sweep driver (internal/dse) is
// ordering: ranking thousands of candidate machines well enough that
// the clearly-dominated ones can be pruned before simulation, and
// cross-checking that the simulated Pareto frontier orders the same
// way the analytic model does.
package queuemodel

import (
	"fmt"
	"math"

	"mfup/internal/isa"
	"mfup/internal/machdef"
	"mfup/internal/trace"
)

// Workload is the instruction mix the estimate is computed against:
// the fraction of the dynamic stream bound for each functional-unit
// class.
type Workload struct {
	Instructions int64
	Frac         [isa.NumUnits]float64
}

// WorkloadOf aggregates the mixes of a set of traces into one
// workload, weighting each trace by its dynamic length.
func WorkloadOf(ts []*trace.Trace) Workload {
	var w Workload
	var by [isa.NumUnits]int64
	for _, t := range ts {
		m := t.ComputeMix()
		w.Instructions += m.Total
		for u, n := range m.ByUnit {
			by[u] += n
		}
	}
	if w.Instructions > 0 {
		for u, n := range by {
			w.Frac[u] = float64(n) / float64(w.Instructions)
		}
	}
	return w
}

// Center is one M/M/c service center of the model.
type Center struct {
	Name    string
	Servers int     // c
	Service float64 // S: cycles one visit holds a server
	Demand  float64 // visits per instruction

	// Capacity is the center's saturation throughput in instructions
	// per cycle: Servers / (Demand * Service).
	Capacity float64
}

// Estimate is the model's verdict on one machine definition.
type Estimate struct {
	// Rate is the predicted sustainable issue rate, instructions per
	// cycle: the bottleneck capacity, tightened by the instruction
	// window where the machine has one.
	Rate float64

	// Saturation is the bottleneck capacity before the window
	// constraint; Rate == Saturation on machines without a window.
	Saturation float64

	// Bottleneck names the center that saturates first.
	Bottleneck string

	// Centers is the full network, for diagnostics and reports.
	Centers []Center
}

// segmentedKinds mirrors which machines pipeline their functional
// units (fu.Pool.SegmentAll in the constructors). The serial-memory
// and simple machines run every unit non-segmented; the non-segmented
// machine pipelines only memory.
func segmented(kind string, u isa.Unit) bool {
	switch kind {
	case "simple", "serialmem":
		return false
	case "nonseg":
		return u == isa.Memory
	}
	return true
}

// Predict estimates the issue rate spec sustains on workload w. The
// spec is canonicalized first, so any valid wire-form spec works; an
// invalid spec or an empty workload is an error.
func Predict(spec machdef.Spec, w Workload) (Estimate, error) {
	s, err := machdef.Canonicalize(spec)
	if err != nil {
		return Estimate{}, err
	}
	if w.Instructions <= 0 {
		return Estimate{}, fmt.Errorf("queuemodel: empty workload")
	}
	if s.Kind == "vector" {
		return Estimate{}, fmt.Errorf("queuemodel: the vector machine's datapath is not a scalar queueing network")
	}

	latency := func(u isa.Unit) float64 {
		if v, ok := s.FULat[u.String()]; ok {
			return float64(v)
		}
		switch u {
		case isa.Memory:
			return float64(s.Mem)
		case isa.Branch:
			return float64(s.Br)
		}
		return float64(isa.DefaultLatency(u))
	}
	copies := func(u isa.Unit) int {
		if v, ok := s.FUCount[u.String()]; ok {
			return v
		}
		return 1
	}
	width := s.Width
	if width < 1 {
		width = 1
	}

	var centers []Center
	add := func(name string, servers int, service, demand float64) {
		if demand <= 0 || servers < 1 || service <= 0 {
			return
		}
		centers = append(centers, Center{
			Name: name, Servers: servers, Service: service, Demand: demand,
			Capacity: float64(servers) / (demand * service),
		})
	}

	if s.Kind == "simple" {
		// Execution is exclusive: one instruction in flight, holding the
		// single execute server for its whole latency. One center
		// captures the machine.
		var mean float64
		for u := 0; u < isa.NumUnits; u++ {
			mean += w.Frac[u] * latency(isa.Unit(u))
		}
		add("execute (exclusive)", 1, mean, 1)
	} else {
		// Issue stage: width servers, one cycle each.
		add("issue", width, 1, 1)

		// One center per functional-unit class with traffic. A pipelined
		// unit of depth L and k copies is k*L servers of service L
		// (capacity k per cycle); a non-segmented one is k servers
		// (capacity k/L).
		for u := 0; u < isa.NumUnits; u++ {
			unit := isa.Unit(u)
			f := w.Frac[u]
			if f == 0 {
				continue
			}
			if unit == isa.Memory && s.MemBanks > 0 {
				// Banked memory: each access holds one of MemBanks banks
				// for the full access time.
				add("memory banks", s.MemBanks, latency(unit), f)
				continue
			}
			l, k := latency(unit), copies(unit)
			if segmented(s.Kind, unit) {
				add(unit.String(), k*int(math.Max(l, 1)), l, f)
			} else {
				add(unit.String(), k, l, f)
			}
		}

		// Result buses on the multiple-issue machines: approximately one
		// broadcast per instruction.
		switch s.Bus {
		case "nbus":
			add("result buses", width, 1, 1)
		case "1bus":
			add("result bus", 1, 1, 1)
		case "xbar":
			b := s.Buses
			if b == 0 {
				b = width
			}
			add("crossbar buses", b, 1, 1)
		}
	}

	// Branch shadow: no machine in the suite issues past an unresolved
	// branch, so each branch closes the issue stage for its execution
	// time — a single-server center seeing the branch fraction.
	if !s.PerfectBranches && s.Kind != "simple" {
		add("branch shadow", 1, float64(s.Br), w.Frac[isa.Branch])
	}

	est := Estimate{Centers: centers, Saturation: math.Inf(1)}
	for _, c := range centers {
		if c.Capacity < est.Saturation {
			est.Saturation, est.Bottleneck = c.Capacity, c.Name
		}
	}
	est.Rate = est.Saturation

	if n := window(s, w); n > 0 {
		est.Rate = windowRate(centers, est.Saturation, n)
	}
	return est, nil
}

// window is the instruction window of the canonical spec s on
// workload w, 0 for a machine without one. In-flight instructions
// occupy a buffer entry from issue to retirement, so Little's law
// bounds the rate by window / residence(rate), residence including
// the Erlang-C queueing delays at every center. The RUU's window is
// its entry count; a multiple-issue machine's is its stations, each of
// which holds one instruction until completion (halved, amortized,
// under in-order issue, where the head of the line blocks the rest);
// Tomasulo's is its reservation stations across the unit classes the
// mix exercises.
func window(s machdef.Spec, w Workload) float64 {
	width := float64(max(s.Width, 1))
	switch s.Kind {
	case "ruu":
		return float64(s.RUU)
	case "ooo":
		return width
	case "multi":
		return (width + 1) / 2
	case "tomasulo":
		active := 0
		for u := 0; u < isa.NumUnits; u++ {
			if w.Frac[u] > 0 {
				active++
			}
		}
		return float64(s.Stations * active)
	}
	return 0
}

// windowRate is the rate a window of n instructions sustains on the
// network, solved by bisection below saturation, where the delays are
// finite; saturation itself when the window does not bind there.
func windowRate(centers []Center, saturation, n float64) float64 {
	hi := saturation * (1 - 1e-9)
	if residency(centers, hi)*hi <= n {
		return saturation
	}
	// lo only ever holds rates the window sustains and hi rates it
	// does not, so once the midpoint rounds to either end, a step
	// leaves both where they are and so does every later one: stopping
	// there gives the rate all 64 steps would.
	lo := 0.0
	for i := 0; i < 64; i++ {
		mid := (lo + hi) / 2
		if mid == lo || mid == hi {
			break
		}
		if residency(centers, mid)*mid > n {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo
}

// residency is the expected cycles one instruction spends in the
// machine at arrival rate lam: for each center it visits, the service
// time plus the M/M/c queueing delay.
func residency(centers []Center, lam float64) float64 {
	var r float64
	for _, c := range centers {
		a := lam * c.Demand * c.Service // offered load, erlangs
		if a >= float64(c.Servers) {
			return math.Inf(1)
		}
		wq := erlangC(c.Servers, a) * c.Service / (float64(c.Servers) - a)
		r += c.Demand * (c.Service + wq)
	}
	return r
}

// erlangC is the steady-state probability an arrival waits in an
// M/M/c queue with offered load a < c, via the numerically stable
// Erlang-B recursion.
func erlangC(c int, a float64) float64 {
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + a*b)
	}
	rho := a / float64(c)
	return b / (1 - rho*(1-b))
}
