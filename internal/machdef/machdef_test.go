package machdef

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"mfup/internal/bus"
	"mfup/internal/core"
	"mfup/internal/isa"
	"mfup/internal/loops"
)

// TestGoldenSpecsCompile parses each of the ten golden testdata specs
// and checks it compiles to the machine it names.
func TestGoldenSpecsCompile(t *testing.T) {
	wantName := map[string]string{
		"simple":     "Simple",
		"serialmem":  "SerialMemory",
		"nonseg":     "NonSegmented",
		"cray":       "CRAY-like",
		"scoreboard": "Scoreboard",
		"tomasulo":   "Tomasulo(4 stations/unit)",
		"multi":      "MultiIssue(4,N-Bus)",
		"ooo":        "MultiIssueOOO(4,N-Bus)",
		"ruu":        "RUU(2 units, 50 entries, N-Bus)",
		"vector":     "Vector",
	}
	for kind, want := range wantName {
		s, err := ParseFile(filepath.Join("testdata", kind+".json"))
		if err != nil {
			t.Fatalf("%s.json: %v", kind, err)
		}
		m, err := s.New()
		if err != nil {
			t.Fatalf("%s.json: New: %v", kind, err)
		}
		if m.Name() != want {
			t.Errorf("%s.json: built %q, want %q", kind, m.Name(), want)
		}
	}
}

// TestDifferentialAgainstDirectConstructors runs each golden kind,
// across the paper's four machine variations, both ways — via machdef
// and via the direct core constructor — and demands identical cycle
// counts. This is the proof that the declarative layer is a faithful
// re-expression of the hand-built configurations.
func TestDifferentialAgainstDirectConstructors(t *testing.T) {
	if testing.Short() {
		t.Skip("differential matrix is not short")
	}
	k, err := loops.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	tr := k.SharedTrace()
	vk, err := loops.VectorKernel(1)
	if err != nil {
		t.Fatal(err)
	}
	vtr := vk.SharedTrace()

	direct := map[string]func(core.Config) (core.Machine, error){
		"simple":     func(c core.Config) (core.Machine, error) { return core.NewBasic(core.Simple, c) },
		"serialmem":  func(c core.Config) (core.Machine, error) { return core.NewBasic(core.SerialMemory, c) },
		"nonseg":     func(c core.Config) (core.Machine, error) { return core.NewBasic(core.NonSegmented, c) },
		"cray":       func(c core.Config) (core.Machine, error) { return core.NewBasic(core.CRAYLike, c) },
		"scoreboard": core.NewScoreboard,
		"tomasulo": func(c core.Config) (core.Machine, error) {
			return core.NewTomasulo(c.WithRUU(4))
		},
		"multi": func(c core.Config) (core.Machine, error) {
			return core.NewMultiIssue(c.WithIssue(4, bus.BusN))
		},
		"ooo": func(c core.Config) (core.Machine, error) {
			return core.NewMultiIssueOOO(c.WithIssue(4, bus.BusN))
		},
		"ruu": func(c core.Config) (core.Machine, error) {
			return core.NewRUU(c.WithIssue(2, bus.BusN).WithRUU(50))
		},
		"vector": core.NewVector,
	}
	for kind, mk := range direct {
		for _, base := range core.BaseConfigs() {
			s, err := ParseFile(filepath.Join("testdata", kind+".json"))
			if err != nil {
				t.Fatal(err)
			}
			s.Mem, s.Br = base.MemLatency, base.BranchLatency
			if s, err = Canonicalize(s); err != nil {
				t.Fatalf("%s %s: %v", kind, base.Name(), err)
			}
			declared, err := s.New()
			if err != nil {
				t.Fatalf("%s %s: declarative: %v", kind, base.Name(), err)
			}
			reference, err := mk(base)
			if err != nil {
				t.Fatalf("%s %s: direct: %v", kind, base.Name(), err)
			}
			workload := tr
			if kind == "vector" {
				workload = vtr
			}
			got, err := declared.RunChecked(workload, core.Limits{})
			if err != nil {
				t.Fatalf("%s %s: declarative run: %v", kind, base.Name(), err)
			}
			want, err := reference.RunChecked(workload, core.Limits{})
			if err != nil {
				t.Fatalf("%s %s: direct run: %v", kind, base.Name(), err)
			}
			if got.Cycles != want.Cycles || got.Instructions != want.Instructions {
				t.Errorf("%s %s: declarative %d cycles / %d instrs, direct %d / %d",
					kind, base.Name(), got.Cycles, got.Instructions, want.Cycles, want.Instructions)
			}
		}
	}
}

// TestCanonicalizeDefaults checks defaults are spelled out and
// ignored knobs zeroed, so equivalent specs share one key.
func TestCanonicalizeDefaults(t *testing.T) {
	terse, err := Canonicalize(Spec{Kind: "CRAY "})
	if err != nil {
		t.Fatal(err)
	}
	spelled, err := Canonicalize(Spec{Kind: "cray", Mem: 11, Br: 5, RUU: 50, Stations: 4, Width: 1})
	if err != nil {
		t.Fatal(err)
	}
	if terse.Key() != spelled.Key() {
		t.Errorf("equivalent specs canonicalize apart:\n  %+v\n  %+v", terse, spelled)
	}
	if terse.Mem != 11 || terse.Br != 5 || terse.RUU != 0 || terse.Width != 0 {
		t.Errorf("canonical cray = %+v", terse)
	}

	// A no-op override and a single-copy replication vanish.
	noop, err := Canonicalize(Spec{Kind: "cray", FULat: map[string]int{"FloatMul": 7}, FUCount: map[string]int{"FloatAdd": 1}})
	if err != nil {
		t.Fatal(err)
	}
	if noop.FULat != nil || noop.FUCount != nil {
		t.Errorf("no-op unit maps survived canonicalization: %+v", noop)
	}
	if noop.Key() != terse.Key() {
		t.Error("no-op unit maps changed the content key")
	}

	// A crossbar with one bus per station is spelled without Buses.
	xb, err := Canonicalize(Spec{Kind: "multi", Width: 4, Bus: "xbar", Buses: 4})
	if err != nil {
		t.Fatal(err)
	}
	if xb.Buses != 0 {
		t.Errorf("default-width crossbar kept buses = %d", xb.Buses)
	}
}

// TestMultiIssue checks the predicate names exactly the kinds that
// take a width above one, in any spelling of the kind.
func TestMultiIssue(t *testing.T) {
	for _, k := range Kinds() {
		_, err := Canonicalize(Spec{Kind: k, Width: 2})
		if got := MultiIssue(" " + strings.ToUpper(k)); got != (err == nil) {
			t.Errorf("MultiIssue(%q) = %v, but width 2 canonicalizes with error %v", k, got, err)
		}
	}
	if MultiIssue("no-such-kind") {
		t.Error("an unknown kind is multiple-issue")
	}
}

// TestRejectionTable exercises every out-of-range knob and checks for
// a one-line diagnostic naming it.
func TestRejectionTable(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string // substring of the one-line diagnostic
	}{
		{"unknown kind", Spec{Kind: "quantum"}, `unknown machine kind "quantum"`},
		{"empty kind", Spec{}, "unknown machine kind"},
		{"mem zero", Spec{Kind: "cray", Mem: -1}, "memory access time"},
		{"br negative", Spec{Kind: "cray", Br: -2}, "branch execution time"},
		{"width zero", Spec{Kind: "multi", Width: -1}, "need at least one issue station"},
		{"width on single-issue", Spec{Kind: "cray", Width: 2}, "single-issue"},
		{"bad bus", Spec{Kind: "multi", Bus: "tokenring"}, "unknown bus kind"},
		{"xbar on ruu", Spec{Kind: "ruu", Bus: "xbar"}, "nbus or 1bus"},
		{"buses negative", Spec{Kind: "multi", Bus: "xbar", Buses: -1}, "cannot be negative"},
		{"buses on nbus", Spec{Kind: "multi", Bus: "nbus", Buses: 2}, "only the xbar"},
		{"ruu zero entries", Spec{Kind: "ruu", RUU: -1}, "at least one RUU entry"},
		{"ruu below width", Spec{Kind: "ruu", Width: 4, RUU: 2}, "at least as many RUU entries"},
		{"stations zero", Spec{Kind: "tomasulo", Stations: -1}, "at least one reservation station"},
		{"banks negative", Spec{Kind: "cray", MemBanks: -3}, "bank count cannot be negative"},
		{"fulat unknown unit", Spec{Kind: "cray", FULat: map[string]int{"Warp": 3}}, `unknown functional-unit class "Warp"`},
		{"fulat zero", Spec{Kind: "cray", FULat: map[string]int{"FloatMul": 0}}, "at least 1 cycle"},
		{"fulat memory", Spec{Kind: "cray", FULat: map[string]int{"Memory": 3}}, "machine parameter"},
		{"fulat branch", Spec{Kind: "cray", FULat: map[string]int{"Branch": 1}}, "machine parameter"},
		{"fucount zero", Spec{Kind: "cray", FUCount: map[string]int{"FloatMul": 0}}, "at least 1"},
		{"fucount negative", Spec{Kind: "cray", FUCount: map[string]int{"FloatMul": -2}}, "at least 1"},
		{"fucount unknown unit", Spec{Kind: "cray", FUCount: map[string]int{"Blender": 2}}, `unknown functional-unit class "Blender"`},
		{"fucount on vector", Spec{Kind: "vector", FUCount: map[string]int{"FloatMul": 2}}, "no functional-unit replication"},
		{"fulat unit named twice", Spec{Kind: "cray", FULat: map[string]int{"FloatMul": 3, " FloatMul": 4}}, "named twice"},
		{"fucount unit named twice", Spec{Kind: "ooo", FUCount: map[string]int{"FloatMul": 2, "FloatMul ": 1}}, "named twice"},
		// Past the core.Config.Validate construction bounds.
		{"ruu past bound", Spec{Kind: "ruu", Width: 4, RUU: 200_000_000}, "exceeds the limit"},
		{"width past bound", Spec{Kind: "multi", Width: 200_000_000}, "exceed the limit"},
		{"membanks past bound", Spec{Kind: "cray", MemBanks: 2_000_000_000}, "exceeds the limit"},
		{"fucount past bound", Spec{Kind: "ooo", FUCount: map[string]int{"FloatMul": 2_000_000_000}}, "exceeds the limit"},
		{"mem past bound", Spec{Kind: "cray", Mem: 1 << 62}, "exceeds the limit"},
		{"fulat past bound", Spec{Kind: "cray", FULat: map[string]int{"FloatMul": 1 << 40}}, "exceeds the limit"},
		{"stations past bound", Spec{Kind: "tomasulo", Stations: 1 << 20}, "exceeds the limit"},
	}
	for _, tc := range cases {
		_, err := Canonicalize(tc.spec)
		if err == nil {
			t.Errorf("%s: accepted %+v", tc.name, tc.spec)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: diagnostic %q does not mention %q", tc.name, err, tc.want)
		}
		if strings.Contains(err.Error(), "\n") {
			t.Errorf("%s: diagnostic spans lines: %q", tc.name, err)
		}
	}
}

// TestParseRejectsUnknownFields: typos must not silently vanish.
func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse([]byte(`{"kind": "cray", "wdith": 4}`)); err == nil {
		t.Error("unknown JSON field accepted")
	}
}

// TestKeyDiscriminates: every knob that can change a result must
// change the key.
func TestKeyDiscriminates(t *testing.T) {
	base := Spec{Kind: "multi", Width: 4, Bus: "xbar"}
	variants := []Spec{
		{Kind: "ooo", Width: 4, Bus: "xbar"},
		{Kind: "multi", Width: 8, Bus: "xbar"},
		{Kind: "multi", Width: 4, Bus: "nbus"},
		{Kind: "multi", Width: 4, Bus: "xbar", Buses: 2},
		{Kind: "multi", Width: 4, Bus: "xbar", Mem: 5},
		{Kind: "multi", Width: 4, Bus: "xbar", Br: 2},
		{Kind: "multi", Width: 4, Bus: "xbar", MemBanks: 8},
		{Kind: "multi", Width: 4, Bus: "xbar", FULat: map[string]int{"FloatMul": 4}},
		{Kind: "multi", Width: 4, Bus: "xbar", FUCount: map[string]int{"FloatMul": 2}},
		{Kind: "multi", Width: 4, Bus: "xbar", PerfectBranches: true},
	}
	b, err := Canonicalize(base)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{b.Key(): "base"}
	for i, v := range variants {
		c, err := Canonicalize(v)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if prev, dup := seen[c.Key()]; dup {
			t.Errorf("variant %d collides with %s", i, prev)
		}
		seen[c.Key()] = c.Kind
	}
}

// TestCostMonotonicity: more hardware must cost more, identical specs
// identically.
func TestCostMonotonicity(t *testing.T) {
	c := func(s Spec) float64 {
		cs, err := Canonicalize(s)
		if err != nil {
			t.Fatal(err)
		}
		return cs.Cost()
	}
	narrow := c(Spec{Kind: "multi", Width: 2})
	wide := c(Spec{Kind: "multi", Width: 8})
	if wide <= narrow {
		t.Errorf("8-wide (%g) not dearer than 2-wide (%g)", wide, narrow)
	}
	one := c(Spec{Kind: "cray"})
	two := c(Spec{Kind: "cray", FUCount: map[string]int{"FloatMul": 2}})
	if two <= one {
		t.Errorf("replicated multiplier (%g) not dearer than base (%g)", two, one)
	}
	smallRUU := c(Spec{Kind: "ruu", Width: 2, RUU: 10})
	bigRUU := c(Spec{Kind: "ruu", Width: 2, RUU: 100})
	if bigRUU <= smallRUU {
		t.Errorf("RUU 100 (%g) not dearer than RUU 10 (%g)", bigRUU, smallRUU)
	}
	starved := c(Spec{Kind: "multi", Width: 8, Bus: "xbar", Buses: 2})
	full := c(Spec{Kind: "multi", Width: 8, Bus: "xbar"})
	if starved >= full {
		t.Errorf("2-bus crossbar (%g) not cheaper than 8-bus (%g)", starved, full)
	}
}

// TestNewKnobsChangeTiming: the new design-space knobs must actually
// reach the timing model — a starved crossbar or a slower multiplier
// cannot simulate identically to the base machine.
func TestNewKnobsChangeTiming(t *testing.T) {
	k, err := loops.Get(9) // FloatMul-heavy inner product
	if err != nil {
		t.Fatal(err)
	}
	tr := k.SharedTrace()
	run := func(s Spec) core.Result {
		t.Helper()
		c, err := Canonicalize(s)
		if err != nil {
			t.Fatal(err)
		}
		m, err := c.New()
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.RunChecked(tr, core.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	base := run(Spec{Kind: "ooo", Width: 8, Bus: "xbar"})
	starved := run(Spec{Kind: "ooo", Width: 8, Bus: "xbar", Buses: 1})
	if starved.Cycles <= base.Cycles {
		t.Errorf("1-bus crossbar (%d cycles) not slower than 8-bus (%d)", starved.Cycles, base.Cycles)
	}
	slowMul := run(Spec{Kind: "cray", FULat: map[string]int{"FloatMul": 20}})
	craybase := run(Spec{Kind: "cray"})
	if slowMul.Cycles <= craybase.Cycles {
		t.Errorf("20-cycle multiplier (%d cycles) not slower than 7-cycle (%d)", slowMul.Cycles, craybase.Cycles)
	}
}

// largestSpec is the largest machine of kind that Canonicalize admits:
// every size and latency at its core.Config.Validate bound, on the
// N-Bus interconnect, whose tracker keeps one ring per station.
func largestSpec(kind string) Spec {
	s := Spec{Kind: kind, Mem: core.MaxLatency, Br: core.MaxLatency}
	info := kinds[kind]
	if info.multi {
		s.Width, s.Bus = core.MaxIssueUnits, "nbus"
	}
	if info.ruu {
		s.RUU = core.MaxRUUSize
	}
	if info.stations {
		s.Stations = core.MaxRUUSize
	}
	if info.banks {
		s.MemBanks = core.MaxMemBanks
	}
	s.FULat = map[string]int{}
	for u := range isa.Unit(isa.NumUnits) {
		if u != isa.Memory && u != isa.Branch {
			s.FULat[u.String()] = core.MaxLatency
		}
	}
	if info.pool {
		s.FUCount = map[string]int{}
		for u := range isa.Unit(isa.NumUnits) {
			s.FUCount[u.String()] = core.MaxUnitCopies
		}
	}
	return s
}

// TestLargestMachinesBuildWithin64MiB: the construction bounds admit
// no machine whose constructor allocates more than 64 MiB, measured as
// the bytes allocated during New.
func TestLargestMachinesBuildWithin64MiB(t *testing.T) {
	const budget = 64 << 20
	for _, kind := range Kinds() {
		c, err := Canonicalize(largestSpec(kind))
		if err != nil {
			t.Errorf("%s: largest spec refused: %v", kind, err)
			continue
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := c.New()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Errorf("%s: largest spec does not build: %v", kind, err)
			continue
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > budget {
			t.Errorf("%s: %s allocated %d MiB at construction, want at most %d", kind, m.Name(), n>>20, budget>>20)
		}
	}
}

// FuzzSpec parses arbitrary bytes as a machine definition. Every spec
// Parse accepts must be a fixed point of Canonicalize, must hash to
// the same key however often it is parsed, and must build: admission
// in serve's points and sweeps rests on Parse and Canonicalize, so an
// accepted spec that New refuses, or that exhausts memory in New,
// would fail or kill the worker that runs it.
func FuzzSpec(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("golden specs: %v (%d found)", err, len(seeds))
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, doc := range []string{
		`{"kind":"ruu","width":4,"ruu":200000000}`,
		`{"kind":"multi","width":200000000}`,
		`{"kind":"ooo","fucount":{"FloatMul":2000000000}}`,
		`{"kind":"cray","membanks":2000000000}`,
		`{"kind":"cray","mem":4611686018427387904}`,
		`{"kind":"ooo","bus":"xbar","buses":3,"fulat":{"FloatMul":1099511627776},"perfectbranches":true}`,
		`{"kind":"cray","fulat":{"FloatMul":3," FloatMul":4}}`,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Parse(data)
		if err != nil {
			return
		}
		again, err := Canonicalize(c)
		if err != nil {
			t.Fatalf("canonical spec %+v refused: %v", c, err)
		}
		if !reflect.DeepEqual(again, c) {
			t.Fatalf("Canonicalize is not idempotent:\n once  %+v\n twice %+v", c, again)
		}
		reparsed, err := Parse(data)
		if err != nil || reparsed.Key() != c.Key() || again.Key() != c.Key() {
			t.Fatalf("unstable key for %q: %s, reparsed %s (%v), recanonicalized %s", data, c.Key(), reparsed.Key(), err, again.Key())
		}
		if _, err := c.New(); err != nil {
			t.Fatalf("accepted spec %+v does not build: %v", c, err)
		}
	})
}
