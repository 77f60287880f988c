package machdef

import (
	"math/rand"
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
	pick := func() string {
		for {
			if u := isa.Unit(rng.Intn(isa.NumUnits)); u != isa.Memory && u != isa.Branch {
				return u.String()
			}
		}
	}
	if rng.Intn(2) == 0 {
		s.FUCount = map[string]int{pick(): 2 + rng.Intn(2)}
	}
	if rng.Intn(2) == 0 {
		s.FULat = map[string]int{pick(): 1 + rng.Intn(12)}
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
	identity := func(s Spec) Identity {
		c, err := Canonicalize(s)
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		id, ok := c.Identity()
		if !ok {
			t.Fatalf("%+v has no identity", c)
		}
		return id
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
