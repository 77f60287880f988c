// Package machdef is the declarative machine-definition layer: one
// JSON-settable Spec that names any machine the suite can simulate —
// organization kind, memory and branch times, issue width, result-bus
// interconnect and count, RUU/reservation-station buffering, memory
// banking, and per-class functional-unit latency overrides and
// replication — validated with one-line diagnostics, canonicalized to
// a single normal form, content-addressed, priced by a deterministic
// hardware-cost function, and compiled into the concrete constructor
// in internal/core.
//
// The paper's 4x10 machine grid is the degenerate corner of this
// space: the ten golden specs under testdata/ reproduce Tables 1-8 of
// the seed byte-identically, which is the regression proof that the
// declarative layer is a faithful re-expression, not a fork, of the
// hand-built configurations. Everything beyond the grid — wider
// machines, replicated multipliers, starved crossbars — is reached by
// varying Spec fields, which is what the design-space sweep driver
// (internal/dse) enumerates.
package machdef

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"mfup/internal/bus"
	"mfup/internal/cli"
	"mfup/internal/core"
	"mfup/internal/isa"
)

// Spec is the wire form of one machine definition. The zero value of
// every field means "the paper's default"; a canonical Spec (from
// Canonicalize) has defaults spelled out and ignored knobs zeroed.
type Spec struct {
	// Kind: simple | serialmem | nonseg | cray | scoreboard |
	// tomasulo | multi | ooo | ruu | vector.
	Kind string `json:"kind"`

	Mem int `json:"mem,omitempty"` // memory access cycles; default 11
	Br  int `json:"br,omitempty"`  // branch execution cycles; default 5

	// Width is the number of issue stations/units for the
	// multiple-issue kinds (multi, ooo, ruu); default 1.
	Width int `json:"width,omitempty"`

	// Bus: nbus | 1bus | xbar (multi, ooo; ruu takes nbus or 1bus).
	// Default nbus.
	Bus string `json:"bus,omitempty"`

	// Buses sizes the crossbar's shared result-bus capacity
	// independently of Width; 0 = one bus per station. Only the xbar
	// interconnect can have it.
	Buses int `json:"buses,omitempty"`

	// RUU is the Register Update Unit entry count (ruu); default 50.
	RUU int `json:"ruu,omitempty"`

	// Stations is the reservation stations per functional unit
	// (tomasulo); default 4.
	Stations int `json:"stations,omitempty"`

	// MemBanks models B address-interleaved memory banks on the
	// machines with interleaved memory (nonseg, cray, multi, ooo,
	// ruu); 0 = the paper's ideal interleaved memory.
	MemBanks int `json:"membanks,omitempty"`

	// FULat overrides per-class functional-unit latencies by unit
	// name ("FloatMul": 4). Memory and Branch are machine parameters:
	// set Mem/Br instead.
	FULat map[string]int `json:"fulat,omitempty"`

	// FUCount replicates functional-unit classes by unit name
	// ("FloatMul": 2 gives two multipliers). The vector machine has
	// its own datapath and takes no replication.
	FUCount map[string]int `json:"fucount,omitempty"`

	// PerfectBranches is the ideal-prediction ablation.
	PerfectBranches bool `json:"perfectbranches,omitempty"`
}

// kindInfo declares which knobs each machine kind consumes; the rest
// are zeroed by canonicalization so equivalent specs collide.
type kindInfo struct {
	multi    bool // Width/Bus (and Buses under xbar)
	banks    bool // MemBanks
	pool     bool // FUCount (every pool-based machine)
	ruu      bool // RUU size
	stations bool // Tomasulo stations
	xbar     bool // may take the crossbar interconnect
}

var kinds = map[string]kindInfo{
	"simple":     {pool: true},
	"serialmem":  {pool: true},
	"nonseg":     {banks: true, pool: true},
	"cray":       {banks: true, pool: true},
	"scoreboard": {pool: true},
	"tomasulo":   {pool: true, stations: true},
	"multi":      {multi: true, banks: true, pool: true, xbar: true},
	"ooo":        {multi: true, banks: true, pool: true, xbar: true},
	"ruu":        {multi: true, banks: true, pool: true, ruu: true},
	"vector":     {},
}

// Kinds returns the valid Spec.Kind values, sorted.
func Kinds() []string {
	ks := make([]string, 0, len(kinds))
	for k := range kinds {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// MultiIssue reports whether kind, in any case, takes the
// multiple-issue knobs Width and Bus.
func MultiIssue(kind string) bool {
	return kinds[strings.ToLower(strings.TrimSpace(kind))].multi
}

// Error is a structurally invalid machine definition. Each message is
// a single line naming the offending knob and its value.
type Error struct{ Msg string }

func (e *Error) Error() string { return "machdef: " + e.Msg }

func errf(format string, args ...any) error {
	return &Error{Msg: fmt.Sprintf(format, args...)}
}

// Canonicalize validates s and rewrites it into the one normal form
// two equivalent definitions share: kind names lowercased, defaults
// spelled out, knobs the kind ignores zeroed, no-op latency overrides
// and single-copy replications dropped. The canonical form is what
// Key hashes and Config compiles, and New builds: a spec past the
// core.Config.Validate bounds on sizes and latencies is refused here.
func Canonicalize(s Spec) (Spec, error) {
	c := s
	c.Kind = strings.ToLower(strings.TrimSpace(c.Kind))
	info, ok := kinds[c.Kind]
	if !ok {
		return c, errf("unknown machine kind %q (want one of %s)", s.Kind, strings.Join(Kinds(), ", "))
	}

	if c.Mem == 0 {
		c.Mem = 11
	}
	if c.Br == 0 {
		c.Br = 5
	}
	if c.Mem < 1 {
		return c, errf("mem %d: memory access time must be at least 1 cycle", c.Mem)
	}
	if c.Br < 1 {
		return c, errf("br %d: branch execution time must be at least 1 cycle", c.Br)
	}

	if info.multi {
		if c.Width == 0 {
			c.Width = 1
		}
		if c.Width < 1 {
			return c, errf("width %d: need at least one issue station", c.Width)
		}
		if c.Bus == "" {
			c.Bus = "nbus"
		}
		kind, err := cli.ParseBusKind(c.Bus)
		if err != nil {
			return c, &Error{Msg: err.Error()}
		}
		if kind == bus.XBar && !info.xbar {
			return c, errf("bus %q: the %s machine takes nbus or 1bus, not a crossbar", s.Bus, c.Kind)
		}
		c.Bus = canonicalBusName(kind)
		switch {
		case c.Buses < 0:
			return c, errf("buses %d: result-bus count cannot be negative", c.Buses)
		case c.Buses > 0 && kind != bus.XBar:
			return c, errf("buses %d: only the xbar interconnect takes an explicit bus count (%s implies its own)", c.Buses, c.Bus)
		case c.Buses == c.Width && kind == bus.XBar:
			c.Buses = 0 // one bus per station is the default; spell it one way
		}
	} else {
		if c.Width > 1 {
			return c, errf("width %d: the %s machine is single-issue", c.Width, c.Kind)
		}
		c.Width, c.Bus, c.Buses = 0, "", 0
	}

	if info.ruu {
		if c.RUU == 0 {
			c.RUU = 50
		}
		if c.RUU < 1 {
			return c, errf("ruu %d: need at least one RUU entry", c.RUU)
		}
		if c.RUU < c.Width {
			return c, errf("ruu %d: need at least as many RUU entries as issue units (%d)", c.RUU, c.Width)
		}
	} else {
		c.RUU = 0
	}

	if info.stations {
		if c.Stations == 0 {
			c.Stations = 4
		}
		if c.Stations < 1 {
			return c, errf("stations %d: need at least one reservation station per unit", c.Stations)
		}
	} else {
		c.Stations = 0
	}

	if c.MemBanks < 0 {
		return c, errf("membanks %d: bank count cannot be negative", c.MemBanks)
	}
	if !info.banks {
		c.MemBanks = 0
	}

	var err error
	if c.FULat, err = canonicalUnitMap(c.FULat, "fulat", func(u isa.Unit, v int) error {
		if u == isa.Memory || u == isa.Branch {
			return errf("fulat %s: %s latency is the mem/br machine parameter, not an override", u, u)
		}
		if v < 1 {
			return errf("fulat %s: latency %d must be at least 1 cycle", u, v)
		}
		if v == isa.DefaultLatency(u) {
			return errDropEntry // restating the default is a no-op
		}
		return nil
	}); err != nil {
		return c, err
	}
	if !info.pool {
		if len(c.FUCount) > 0 {
			return c, errf("fucount: the %s machine has its own datapath and takes no functional-unit replication", c.Kind)
		}
		c.FUCount = nil
	}
	if c.FUCount, err = canonicalUnitMap(c.FUCount, "fucount", func(u isa.Unit, v int) error {
		if v < 1 {
			return errf("fucount %s: copy count %d must be at least 1", u, v)
		}
		if v == 1 {
			return errDropEntry // one copy is the base architecture
		}
		return nil
	}); err != nil {
		return c, err
	}

	// Refuse here what no constructor builds: core.Config.Validate
	// holds the bounds on sizes and latencies.
	cfg, err := c.Config()
	if err == nil {
		err = cfg.Validate()
	}
	if err != nil {
		return c, &Error{Msg: err.Error()}
	}
	return c, nil
}

// errDropEntry is the sentinel a canonicalUnitMap check returns for a
// well-formed entry that restates a default and must be dropped.
var errDropEntry = fmt.Errorf("machdef: drop entry")

// canonicalUnitMap validates a unit-name-keyed map and rewrites it
// with canonical unit names, dropping entries check marks as no-ops.
// An empty result is nil so equivalent specs hash identically. A unit
// named twice (" FloatMul" and "FloatMul") is refused: which value won
// would depend on map iteration order, and so would the key.
func canonicalUnitMap(m map[string]int, field string, check func(isa.Unit, int) error) (map[string]int, error) {
	if len(m) == 0 {
		return nil, nil
	}
	out := make(map[string]int, len(m))
	var seen [isa.NumUnits]bool
	for name, v := range m {
		u, err := isa.ParseUnit(strings.TrimSpace(name))
		if err != nil {
			return nil, errf("%s: unknown functional-unit class %q", field, name)
		}
		if seen[u] {
			return nil, errf("%s: functional-unit class %s named twice", field, u)
		}
		seen[u] = true
		switch err := check(u, v); err {
		case nil:
			out[u.String()] = v
		case errDropEntry:
		default:
			return nil, err
		}
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

// canonicalBusName renders a parsed bus kind in the spelling the
// canonical spec uses.
func canonicalBusName(k bus.Kind) string {
	switch k {
	case bus.Bus1:
		return "1bus"
	case bus.XBar:
		return "xbar"
	default:
		return "nbus"
	}
}

// Parse strictly decodes a JSON machine definition — unknown fields
// are errors, not typos to ignore — and canonicalizes it.
func Parse(data []byte) (Spec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, errf("parsing machine definition: %v", err)
	}
	return Canonicalize(s)
}

// ParseFile reads and parses the machine definition at path.
func ParseFile(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("machdef: %w", err)
	}
	return Parse(data)
}

// Config compiles a canonical spec into the core configuration its
// constructor takes. Call Canonicalize first; a non-canonical spec's
// unit names may not resolve.
func (s Spec) Config() (core.Config, error) {
	cfg := core.Config{
		MemLatency:      s.Mem,
		BranchLatency:   s.Br,
		MemBanks:        s.MemBanks,
		BusCount:        s.Buses,
		PerfectBranches: s.PerfectBranches,
	}
	info, ok := kinds[s.Kind]
	if !ok {
		return cfg, errf("unknown machine kind %q", s.Kind)
	}
	if info.multi {
		kind, err := cli.ParseBusKind(s.Bus)
		if err != nil {
			return cfg, &Error{Msg: err.Error()}
		}
		cfg = cfg.WithIssue(s.Width, kind)
	}
	if info.ruu {
		cfg = cfg.WithRUU(s.RUU)
	}
	if info.stations {
		cfg = cfg.WithRUU(s.Stations) // the tomasulo constructor reads stations from RUUSize
	}
	for name, v := range s.FULat {
		u, err := isa.ParseUnit(name)
		if err != nil {
			return cfg, errf("fulat: %v", err)
		}
		cfg.FULat[u] = v
	}
	for name, v := range s.FUCount {
		u, err := isa.ParseUnit(name)
		if err != nil {
			return cfg, errf("fucount: %v", err)
		}
		cfg.FUCount[u] = v
	}
	return cfg, nil
}

// Identity is the machine a canonical spec builds, its
// functional-unit copy counts aside, as a comparable value. It is the
// compiled configuration, so computing it costs neither JSON nor a
// hash.
type Identity struct {
	kind string
	cfg  core.Config
}

// Family returns the identity of the machine s builds and its
// functional-unit copy counts: copies[u] is how many copies of unit u
// the machine has. Two specs with equal identities and equal copies
// give the same Result on every trace, their machines' names aside.
// Specs with equal identities form a family: they differ only in unit
// copies, which act on a run only through its functional-unit pool
// (fu.Pool.Refused). ok is false when s does not compile.
//
// Family folds the one equivalence between different specs: with a
// single issue unit, a multi, ooo or ruu machine on nbus, 1bus, or
// xbar with at most one bus builds one result bus with one slot per
// cycle, and the RUU one bank, whichever is named. A crossbar of two
// or more buses is a different machine.
func (s Spec) Family() (id Identity, copies [isa.NumUnits]int, ok bool) {
	cfg, err := s.Config()
	if err != nil {
		return Identity{}, copies, false
	}
	if kinds[s.Kind].multi && cfg.IssueUnits == 1 && cfg.BusCount <= 1 {
		cfg.Bus, cfg.BusCount = bus.BusN, 0
	}
	for u, n := range cfg.FUCount {
		copies[u] = max(n, 1)
	}
	cfg.FUCount = [isa.NumUnits]int{}
	return Identity{kind: s.Kind, cfg: cfg}, copies, true
}

// New compiles a canonical spec into a concrete machine. Construction
// errors surface as structured errors, never panics.
func (s Spec) New() (core.Machine, error) {
	cfg, err := s.Config()
	if err != nil {
		return nil, err
	}
	switch s.Kind {
	case "simple":
		return core.NewBasic(core.Simple, cfg)
	case "serialmem":
		return core.NewBasic(core.SerialMemory, cfg)
	case "nonseg":
		return core.NewBasic(core.NonSegmented, cfg)
	case "cray":
		return core.NewBasic(core.CRAYLike, cfg)
	case "scoreboard":
		return core.NewScoreboard(cfg)
	case "tomasulo":
		return core.NewTomasulo(cfg)
	case "multi":
		return core.NewMultiIssue(cfg)
	case "ooo":
		return core.NewMultiIssueOOO(cfg)
	case "ruu":
		return core.NewRUU(cfg)
	case "vector":
		return core.NewVector(cfg)
	}
	return nil, errf("unknown machine kind %q", s.Kind)
}

// Key returns the content address of a canonical spec: the SHA-256,
// in hex, of its versioned canonical JSON. json.Marshal renders map
// keys sorted, so the preimage is deterministic. The version prefix
// makes any change to the Spec encoding invalidate old keys loudly
// instead of colliding with them.
func (s Spec) Key() string {
	b, err := json.Marshal(s)
	if err != nil {
		// A struct of strings, ints, and string-keyed int maps cannot
		// fail to marshal.
		panic(fmt.Sprintf("machdef: marshaling spec: %v", err))
	}
	sum := sha256.Sum256(append([]byte("machdef/v1:"), b...))
	return hex.EncodeToString(sum[:])
}

// Cost prices a canonical spec in abstract area units. It is a
// deterministic proxy, not a die-area model: the sweep's Pareto
// frontier only needs a consistent ordering in which more hardware —
// wider issue, more buses, replicated or deeper units, more buffering,
// more banks — costs more.
//
//	each functional-unit copy   2 + its latency (pipeline depth)
//	each issue station          8
//	each result bus             4
//	each RUU entry              2
//	each reservation station    2 (per unit class)
//	each memory bank            1
func (s Spec) Cost() float64 {
	lat := func(u isa.Unit) int {
		if v, ok := s.FULat[u.String()]; ok {
			return v
		}
		switch u {
		case isa.Memory:
			return s.Mem
		case isa.Branch:
			return s.Br
		}
		return isa.DefaultLatency(u)
	}
	count := func(u isa.Unit) int {
		if v, ok := s.FUCount[u.String()]; ok {
			return v
		}
		return 1
	}
	cost := 0
	for u := 0; u < isa.NumUnits; u++ {
		cost += count(isa.Unit(u)) * (2 + lat(isa.Unit(u)))
	}
	width := s.Width
	if width < 1 {
		width = 1
	}
	cost += 8 * width
	buses := 1
	switch s.Bus {
	case "nbus":
		buses = width
	case "xbar":
		buses = s.Buses
		if buses == 0 {
			buses = width
		}
	}
	cost += 4 * buses
	cost += 2 * s.RUU
	cost += 2 * s.Stations * isa.NumUnits
	cost += s.MemBanks
	return float64(cost)
}
