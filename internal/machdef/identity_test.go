package machdef

import (
	"math/rand"
	"slices"
	"testing"

	"mfup/internal/core"
	"mfup/internal/isa"
	"mfup/internal/loops"
	"mfup/internal/trace"
)

// randomWidth1Spec draws a single-issue-unit multi, ooo or ruu
// definition: random memory and branch times, banks, unit copies,
// unit latencies, perfect branches and RUU size.
func randomWidth1Spec(rng *rand.Rand, kind string) Spec {
	s := Spec{
		Kind:            kind,
		Width:           1,
		Mem:             1 + rng.Intn(20),
		Br:              1 + rng.Intn(8),
		PerfectBranches: rng.Intn(4) == 0,
	}
	if rng.Intn(2) == 0 {
		s.MemBanks = 1 + rng.Intn(8)
	}
	if rng.Intn(2) == 0 {
		s.FUCount = map[string]int{randomUnit(rng, false): 2 + rng.Intn(2)}
	}
	if rng.Intn(2) == 0 {
		s.FULat = map[string]int{randomUnit(rng, false): 1 + rng.Intn(12)}
	}
	if kind == "ruu" {
		s.RUU = 1 + rng.Intn(60)
	}
	return s
}

// TestWidth1InterconnectsShareIdentity holds the rule that lets the
// tables and the sweep run twin machines once: with one issue unit,
// every interconnect a multi, ooo or ruu machine can name is one
// result bus, so each variant of a random definition has the same
// Identity and gives the same Result, name aside, on all 14 kernels.
// A crossbar of two buses is a different machine: it has its own
// identity, and somewhere it is faster.
func TestWidth1InterconnectsShareIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var traces []*trace.Trace
	for _, k := range loops.All() {
		traces = append(traces, k.SharedTrace())
	}
	run := func(s Spec) []core.Result {
		c, err := Canonicalize(s)
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		m, err := c.New()
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		var rs []core.Result
		for _, tr := range traces {
			r, err := m.RunChecked(tr, core.Limits{})
			if err != nil {
				t.Fatalf("%s: %v", m.Name(), err)
			}
			r.Machine = ""
			rs = append(rs, r)
		}
		return rs
	}
	type machine struct {
		id     Identity
		copies [isa.NumUnits]int
	}
	identity := func(s Spec) machine {
		c, err := Canonicalize(s)
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		id, copies, ok := c.Family()
		if !ok {
			t.Fatalf("%+v has no identity", c)
		}
		return machine{id, copies}
	}
	twoBusFaster := false
	for _, kind := range []string{"multi", "ooo", "ruu"} {
		for n := 0; n < 14; n++ {
			base := randomWidth1Spec(rng, kind)
			variants := []Spec{base, base, base, base}
			variants[0].Bus = "nbus"
			variants[1].Bus = "1bus"
			variants[2].Bus, variants[2].Buses = "xbar", 0
			variants[3].Bus, variants[3].Buses = "xbar", 1
			if kind == "ruu" {
				variants = variants[:2] // the RUU takes no crossbar
			}
			want, wantID := run(variants[0]), identity(variants[0])
			for _, v := range variants[1:] {
				if id := identity(v); id != wantID {
					t.Errorf("%+v: identity differs from its nbus twin", v)
				}
				for i, r := range run(v) {
					if r != want[i] {
						t.Errorf("%+v on %s: %+v, nbus twin %+v", v, r.Trace, r, want[i])
					}
				}
			}
			if kind == "ruu" {
				continue
			}
			wide := base
			wide.Bus, wide.Buses = "xbar", 2
			if identity(wide) == wantID {
				t.Errorf("%+v: a 2-bus crossbar shares its identity with one bus", wide)
			}
			for i, r := range run(wide) {
				if r.Cycles < want[i].Cycles {
					twoBusFaster = true
				}
			}
		}
	}
	if !twoBusFaster {
		t.Error("no width-1 machine ran faster on a 2-bus crossbar: the test does not show where the rule ends")
	}
}

// poolKinds are the machine kinds built on a functional-unit pool.
var poolKinds = []string{"simple", "serialmem", "nonseg", "cray", "scoreboard", "tomasulo", "multi", "ooo", "ruu"}

// randomPoolSpec draws a definition of the given pool kind: random
// memory and branch times, width and interconnect, banks, buffering,
// unit latencies and unit copies, as far as the kind takes them.
func randomPoolSpec(rng *rand.Rand, kind string) Spec {
	s := Spec{Kind: kind, Mem: 1 + rng.Intn(20), Br: 1 + rng.Intn(8), PerfectBranches: rng.Intn(4) == 0}
	info := kinds[kind]
	if info.multi {
		s.Width = 1 + rng.Intn(4)
		buses := []string{"nbus", "1bus"}
		if info.xbar {
			buses = append(buses, "xbar")
		}
		s.Bus = buses[rng.Intn(len(buses))]
	}
	if info.banks && rng.Intn(2) == 0 {
		s.MemBanks = 1 + rng.Intn(8)
	}
	if info.ruu {
		s.RUU = s.Width + rng.Intn(50)
	}
	if info.stations {
		s.Stations = 1 + rng.Intn(6)
	}
	if rng.Intn(2) == 0 {
		s.FULat = map[string]int{randomUnit(rng, false): 1 + rng.Intn(12)}
	}
	if rng.Intn(3) == 0 {
		s.FUCount = map[string]int{randomUnit(rng, true): 2}
	}
	return s
}

// randomUnit names a random unit class; Memory and Branch only when
// withParams is set.
func randomUnit(rng *rand.Rand, withParams bool) string {
	for {
		if u := isa.Unit(rng.Intn(isa.NumUnits)); withParams || (u != isa.Memory && u != isa.Branch) {
			return u.String()
		}
	}
}

// TestMoreUnitCopiesShareResults holds the rule that lets a sweep give
// a machine the run of its family member with fewer unit copies
// (runner.RunDistinct). Each random definition of a pool kind is
// paired with one that has more copies of one or two units and is
// otherwise the same machine: one Family, copy counts aside. On every
// kernel where the fewer-copy machine never found an added unit busy
// (core.UnitsRefused), both give the same Result, name aside. The
// floors keep both sides of the rule in view: most runs share, and
// many of the rest differ.
func TestMoreUnitCopiesShareResults(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	var traces []*trace.Trace
	for _, k := range loops.All() {
		traces = append(traces, k.SharedTrace())
	}
	build := func(s Spec) (Spec, core.Machine) {
		c, err := Canonicalize(s)
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		m, err := c.New()
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		return c, m
	}
	shared, differ := 0, 0
	for _, kind := range poolKinds {
		for n := 0; n < 8; n++ {
			base, _ := build(randomPoolSpec(rng, kind))
			more := base
			more.FUCount = map[string]int{}
			for u, c := range base.FUCount {
				more.FUCount[u] = c
			}
			var added []isa.Unit
			for len(added) < 1+n%2 {
				u, err := isa.ParseUnit(randomUnit(rng, true))
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Contains(added, u) {
					added = append(added, u)
					more.FUCount[u.String()] = max(more.FUCount[u.String()], 1) + 1 + rng.Intn(2)
				}
			}
			more, _ = build(more)
			id, fewCopies, _ := base.Family()
			moreID, moreCopies, _ := more.Family()
			if id != moreID {
				t.Fatalf("%+v and %+v: families differ", base, more)
			}
			for _, u := range added {
				if moreCopies[u] <= fewCopies[u] {
					t.Fatalf("%+v: %d copies of %s, %+v has %d", more, moreCopies[u], u, base, fewCopies[u])
				}
			}
			for _, tr := range traces {
				_, fm := build(base)
				_, mm := build(more)
				want, err := fm.RunChecked(tr, core.Limits{})
				if err != nil {
					t.Fatalf("%s: %v", fm.Name(), err)
				}
				got, err := mm.RunChecked(tr, core.Limits{})
				if err != nil {
					t.Fatalf("%s: %v", mm.Name(), err)
				}
				want.Machine, got.Machine = "", ""
				refused, ok := core.UnitsRefused(fm)
				if !ok {
					t.Fatalf("%s has no unit pool", fm.Name())
				}
				busy := false
				for _, u := range added {
					busy = busy || refused.Has(u)
				}
				switch {
				case !busy:
					shared++
					if got != want {
						t.Errorf("%+v on %s: %+v, never found %v busy, yet %+v gives %+v", base, tr.Name, want, added, more, got)
					}
				case got != want:
					differ++
				}
			}
		}
	}
	t.Logf("%d runs never found an added unit busy; of the rest, %d differ", shared, differ)
	if shared < 400 || differ < 35 {
		t.Errorf("%d runs shared and %d differ, want at least 400 and 35", shared, differ)
	}
}
