// Package dse is the design-space exploration driver: it expands a
// declarative sweep specification into a grid of machine definitions
// (internal/machdef), prunes the clearly-dominated ones with the
// analytic queueing model (internal/queuemodel), simulates the rest
// on the worker pool, and reports the Pareto frontier of issue rate
// against hardware cost — with the model's agreement on that frontier
// as a built-in cross-check of both the model and the simulator.
package dse

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"

	"mfup/internal/machdef"
)

// DefaultMaxPoints bounds how many machine definitions one sweep may
// expand to; SweepSpec.MaxPoints overrides it, except in a sweep sent
// to a service (ParseRequest), which may not raise it. The bound is
// explicit, not a silent truncation: an over-budget sweep is an error
// naming the product.
const DefaultMaxPoints = 10000

// SweepSpec is the wire form of one design-space sweep: a base
// machine definition plus named axes, each a list or range of values
// substituted into the base. The cartesian product of the axes is the
// candidate grid.
type SweepSpec struct {
	// Base is the machine definition every grid point starts from.
	Base machdef.Spec `json:"base"`

	// Axes maps a knob name to the values it sweeps over. Knobs:
	// kind, bus (string-valued); mem, br, width, buses, ruu, stations,
	// membanks (int-valued); fulat.<Unit> and fucount.<Unit>
	// (int-valued, e.g. "fucount.FloatMul").
	Axes map[string]Axis `json:"axes"`

	// Loops selects the workload: "scalar" (default), "vectorizable",
	// or "all".
	Loops string `json:"loops,omitempty"`

	// Scale regenerates the kernels at this loop length (as mfutables
	// -scale); 0 keeps the paper defaults.
	Scale int `json:"scale,omitempty"`

	// Extrapolate runs each point under the steady-state extrapolation
	// engine — bit-identical rates, far cheaper at large Scale.
	Extrapolate bool `json:"extrapolate,omitempty"`

	// Prune enables model-based pruning of the expanded grid; nil
	// simulates every point.
	Prune *PruneSpec `json:"prune,omitempty"`

	// MaxPoints overrides DefaultMaxPoints.
	MaxPoints int `json:"maxpoints,omitempty"`
}

// PruneSpec controls the analytic pruning pass: a point is pruned
// when another point costs no more and the model predicts it at least
// (1+Margin) times faster — dominated with room for model error.
type PruneSpec struct {
	// Margin is the relative headroom a dominating point must have
	// before the dominated one is dropped; default 0.10.
	Margin float64 `json:"margin,omitempty"`

	// Keep is a floor on survivors: if pruning leaves fewer, the
	// best-predicted pruned points are restored up to Keep.
	Keep int `json:"keep,omitempty"`
}

// Axis is one swept knob's value set: either an explicit JSON list
// ([1,2,4] or ["nbus","1bus"]) or a range object
// ({"from":1,"to":8,"step":2}). Values are sorted and deduplicated,
// so two sweeps listing the same set in different orders share a Key.
//
// A range is counted, not built, when it is decoded. Canonicalize
// builds it into Ints only when it holds no more values than the
// sweep's point cap; a longer one stays a range, which Expand refuses
// by name. So a document's size, not its numbers, bounds what parsing
// it allocates.
type Axis struct {
	Ints []int    `json:"-"`
	Strs []string `json:"-"`

	rng *axisRange // a decoded range not yet built into Ints
}

// axisRange is the range wire form.
type axisRange struct {
	From int `json:"from"`
	To   int `json:"to"`
	Step int `json:"step,omitempty"`
}

// over reports whether the range holds more than limit values. It
// counts (to-from)/step+1 in unsigned arithmetic, which cannot
// overflow for to >= from and step >= 1.
func (r axisRange) over(limit int) bool {
	return (uint64(r.To)-uint64(r.From))/uint64(r.Step) >= uint64(limit)
}

// values builds the range, which must not be over any cap. It steps
// by count, not by comparing against To, so a range that ends near
// the largest int cannot wrap around and run on.
func (r axisRange) values() []int {
	n := (uint64(r.To) - uint64(r.From)) / uint64(r.Step)
	vs := make([]int, 0, n+1)
	for i, v := uint64(0), r.From; i <= n; i, v = i+1, v+r.Step {
		vs = append(vs, v)
	}
	return vs
}

// UnmarshalJSON accepts the list and range forms.
func (a *Axis) UnmarshalJSON(b []byte) error {
	t := strings.TrimSpace(string(b))
	if strings.HasPrefix(t, "{") {
		dec := json.NewDecoder(strings.NewReader(t))
		dec.DisallowUnknownFields()
		var r axisRange
		if err := dec.Decode(&r); err != nil {
			return fmt.Errorf("axis range: %v", err)
		}
		if r.Step == 0 {
			r.Step = 1
		}
		if r.Step < 1 {
			return fmt.Errorf("axis range: step %d must be positive", r.Step)
		}
		if r.To < r.From {
			return fmt.Errorf("axis range: to %d below from %d", r.To, r.From)
		}
		a.rng = &r
		return nil
	}
	var raw []json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		return fmt.Errorf("axis: want a list or a {from,to,step} range: %v", err)
	}
	for _, rv := range raw {
		var iv int
		if err := json.Unmarshal(rv, &iv); err == nil {
			a.Ints = append(a.Ints, iv)
			continue
		}
		var sv string
		if err := json.Unmarshal(rv, &sv); err != nil {
			return fmt.Errorf("axis value %s: want an integer or a string", rv)
		}
		a.Strs = append(a.Strs, sv)
	}
	if len(a.Ints) > 0 && len(a.Strs) > 0 {
		return fmt.Errorf("axis mixes integer and string values")
	}
	return nil
}

// MarshalJSON renders the canonical (sorted, deduplicated) value
// list, which is what Key hashes. A range too long to build renders
// in its range form; such a sweep never expands.
func (a Axis) MarshalJSON() ([]byte, error) {
	if a.rng != nil {
		return json.Marshal(a.rng)
	}
	if len(a.Strs) > 0 {
		return json.Marshal(a.Strs)
	}
	return json.Marshal(a.Ints)
}

// canonical sorts and deduplicates copies of the axis values: a's
// slices are shared with the spec Canonicalize was called on, which
// other goroutines may be canonicalizing or reading at the same time.
func (a *Axis) canonical() {
	a.Ints, a.Strs = slices.Clone(a.Ints), slices.Clone(a.Strs)
	sort.Ints(a.Ints)
	a.Ints = dedupInts(a.Ints)
	sort.Strings(a.Strs)
	a.Strs = dedupStrings(a.Strs)
}

func dedupInts(vs []int) []int {
	out := vs[:0]
	for i, v := range vs {
		if i == 0 || v != vs[i-1] {
			out = append(out, v)
		}
	}
	return out
}

func dedupStrings(vs []string) []string {
	out := vs[:0]
	for i, v := range vs {
		if i == 0 || v != vs[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// len returns the axis's value count.
func (a Axis) len() int { return len(a.Ints) + len(a.Strs) }

// stringAxes are the knobs that take string values.
var stringAxes = map[string]bool{"kind": true, "bus": true}

// intAxes are the scalar integer knobs.
var intAxes = map[string]bool{
	"mem": true, "br": true, "width": true, "buses": true,
	"ruu": true, "stations": true, "membanks": true,
}

// checkAxis validates one axis name/typing pair.
func checkAxis(name string, a Axis) error {
	switch {
	case stringAxes[name]:
		if len(a.Ints) > 0 || a.rng != nil {
			return fmt.Errorf("axis %q takes strings, got integers", name)
		}
		if name == "kind" {
			for _, v := range a.Strs {
				if strings.EqualFold(v, "vector") {
					return fmt.Errorf("axis kind: the vector machine has its own datapath and is outside the sweep space")
				}
			}
		}
	case intAxes[name] || strings.HasPrefix(name, "fulat.") || strings.HasPrefix(name, "fucount."):
		if len(a.Strs) > 0 {
			return fmt.Errorf("axis %q takes integers, got strings", name)
		}
	default:
		return fmt.Errorf("unknown axis %q (scalar knobs: kind, bus, mem, br, width, buses, ruu, stations, membanks; per-unit: fulat.<Unit>, fucount.<Unit>)", name)
	}
	if a.len() == 0 && a.rng == nil {
		return fmt.Errorf("axis %q has no values", name)
	}
	return nil
}

// Canonicalize validates the sweep and rewrites it into its normal
// form: base spec canonicalized, axis values sorted and deduplicated,
// defaults spelled out.
func (s SweepSpec) Canonicalize() (SweepSpec, error) {
	c := s
	base, err := machdef.Canonicalize(c.Base)
	if err != nil {
		return c, fmt.Errorf("dse: base: %w", err)
	}
	if base.Kind == "vector" {
		return c, fmt.Errorf("dse: base: the vector machine has its own datapath and is outside the sweep space")
	}
	c.Base = base
	if c.MaxPoints == 0 {
		c.MaxPoints = DefaultMaxPoints
	}
	if c.MaxPoints < 1 {
		return c, fmt.Errorf("dse: maxpoints %d must be positive", s.MaxPoints)
	}
	axes := make(map[string]Axis, len(c.Axes))
	for name, a := range c.Axes {
		if a.rng != nil && !a.rng.over(c.MaxPoints) {
			a.Ints, a.rng = a.rng.values(), nil
		}
		a.canonical()
		if err := checkAxis(name, a); err != nil {
			return c, fmt.Errorf("dse: %w", err)
		}
		axes[name] = a
	}
	c.Axes = axes
	switch c.Loops {
	case "", "scalar":
		c.Loops = "scalar"
	case "vectorizable", "all":
	default:
		return c, fmt.Errorf("dse: loops %q: want scalar, vectorizable, or all", s.Loops)
	}
	if c.Scale < 0 {
		return c, fmt.Errorf("dse: scale %d cannot be negative", c.Scale)
	}
	if c.Prune != nil {
		p := *c.Prune
		if p.Margin == 0 {
			p.Margin = 0.10
		}
		if p.Margin < 0 {
			return c, fmt.Errorf("dse: prune margin %g cannot be negative", s.Prune.Margin)
		}
		if p.Keep < 0 {
			return c, fmt.Errorf("dse: prune keep %d cannot be negative", s.Prune.Keep)
		}
		c.Prune = &p
	}
	return c, nil
}

// Parse strictly decodes a JSON sweep specification — unknown fields
// are errors — and canonicalizes it.
func Parse(data []byte) (SweepSpec, error) {
	s, err := decode(data)
	if err != nil {
		return SweepSpec{}, err
	}
	return s.Canonicalize()
}

// ParseRequest is Parse for a sweep sent to a service: the document
// may not raise maxpoints past DefaultMaxPoints. The check comes
// before canonicalization, so a request can never make a service
// build a longer range than the default cap allows.
func ParseRequest(data []byte) (SweepSpec, error) {
	s, err := decode(data)
	if err != nil {
		return SweepSpec{}, err
	}
	if s.MaxPoints > DefaultMaxPoints {
		return SweepSpec{}, fmt.Errorf("dse: maxpoints %d exceeds the service limit of %d", s.MaxPoints, DefaultMaxPoints)
	}
	return s.Canonicalize()
}

// decode strictly decodes a JSON sweep specification.
func decode(data []byte) (SweepSpec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var s SweepSpec
	if err := dec.Decode(&s); err != nil {
		return SweepSpec{}, fmt.Errorf("dse: parsing sweep: %v", err)
	}
	return s, nil
}

// ParseFile reads and parses the sweep specification at path.
func ParseFile(path string) (SweepSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return SweepSpec{}, fmt.Errorf("dse: %w", err)
	}
	return Parse(data)
}

// Key returns the content address of a canonical sweep: the SHA-256,
// in hex, of its versioned canonical JSON. Two sweeps that expand to
// the same grid under the same workload share a key.
func (s SweepSpec) Key() string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(fmt.Sprintf("dse: marshaling sweep: %v", err))
	}
	sum := sha256.Sum256(append([]byte("dse/v1:"), b...))
	return hex.EncodeToString(sum[:])
}

// applyAxis substitutes one axis value into a spec. The spec's unit
// maps are already private copies (see Expand).
func applyAxis(m *machdef.Spec, name string, iv int, sv string) {
	switch name {
	case "kind":
		m.Kind = sv
	case "bus":
		m.Bus = sv
	case "mem":
		m.Mem = iv
	case "br":
		m.Br = iv
	case "width":
		m.Width = iv
	case "buses":
		m.Buses = iv
	case "ruu":
		m.RUU = iv
	case "stations":
		m.Stations = iv
	case "membanks":
		m.MemBanks = iv
	default:
		if unit, ok := strings.CutPrefix(name, "fulat."); ok {
			if m.FULat == nil {
				m.FULat = map[string]int{}
			}
			m.FULat[unit] = iv
			return
		}
		if unit, ok := strings.CutPrefix(name, "fucount."); ok {
			if m.FUCount == nil {
				m.FUCount = map[string]int{}
			}
			m.FUCount[unit] = iv
			return
		}
		panic(fmt.Sprintf("dse: unvalidated axis %q", name))
	}
}

// Expand enumerates the cartesian product of the axes over the base
// spec, canonicalizes every combination, and deduplicates by content
// key. Combinations that do not canonicalize — an explicit bus count
// on a non-crossbar interconnect, say — are dropped and counted, not
// fatal: a rectangular grid over a non-rectangular space always has
// holes. The expansion product is bounded by MaxPoints before any
// work happens.
//
// Call on a canonical sweep (from Parse or Canonicalize). The specs
// return sorted by content key, so expansion order is deterministic.
func (s SweepSpec) Expand() (specs []machdef.Spec, expanded, invalid int, err error) {
	specs, _, expanded, invalid, err = s.expand()
	return specs, expanded, invalid, err
}

// expand is Expand that also returns each spec's content key
// (keys[i] is specs[i].Key()), computing it once per combination.
func (s SweepSpec) expand() (specs []machdef.Spec, keys []string, expanded, invalid int, err error) {
	names := make([]string, 0, len(s.Axes))
	for name := range s.Axes {
		names = append(names, name)
	}
	sort.Strings(names)
	product := 1
	for _, name := range names {
		a := s.Axes[name]
		if r := a.rng; r != nil {
			return nil, nil, 0, 0, fmt.Errorf("dse: axis %q: range from %d to %d step %d holds more values than the %d-point cap; shrink the range or raise maxpoints", name, r.From, r.To, r.Step, s.MaxPoints)
		}
		product *= a.len()
		if product > s.MaxPoints {
			return nil, nil, 0, 0, fmt.Errorf("dse: sweep expands to at least %d points, over the %d-point cap; shrink the axes or raise maxpoints", product, s.MaxPoints)
		}
	}

	type keyed struct {
		spec machdef.Spec
		key  string
	}
	var points []keyed
	seen := make(map[string]bool, product)
	idx := make([]int, len(names))
	for {
		m := s.Base
		// The base's unit maps are shared across combinations; give
		// this point private copies before any per-unit axis writes.
		m.FULat = cloneMap(m.FULat)
		m.FUCount = cloneMap(m.FUCount)
		for i, name := range names {
			a := s.Axes[name]
			if len(a.Strs) > 0 {
				applyAxis(&m, name, 0, a.Strs[idx[i]])
			} else {
				applyAxis(&m, name, a.Ints[idx[i]], "")
			}
		}
		expanded++
		if c, cerr := machdef.Canonicalize(m); cerr != nil || c.Kind == "vector" {
			invalid++
		} else if key := c.Key(); !seen[key] {
			seen[key] = true
			points = append(points, keyed{c, key})
		}

		// Advance the mixed-radix counter.
		i := len(names) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < s.Axes[names[i]].len() {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			break
		}
	}
	if len(points) == 0 {
		return nil, nil, 0, 0, fmt.Errorf("dse: sweep expands to no valid machine definitions")
	}
	sort.Slice(points, func(a, b int) bool { return points[a].key < points[b].key })
	specs = make([]machdef.Spec, len(points))
	keys = make([]string, len(points))
	for i, p := range points {
		specs[i], keys[i] = p.spec, p.key
	}
	return specs, keys, expanded, invalid, nil
}

func cloneMap(m map[string]int) map[string]int {
	if m == nil {
		return nil
	}
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
