package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"mfup/internal/core"
	"mfup/internal/dse"
	"mfup/internal/loops"
	"mfup/internal/serve"
)

// The service workload's request mix, dealt from decks (see deck):
// per 100 requests, 80 resubmissions of a warm key, respelled, 17
// never-seen keys and 3 routed sweeps; per 10 cold jobs, 3 scaled and
// extrapolated.
var (
	mixCounts    = [...]int{hitReq: 80, coldReq: 17, sweepReq: 3}
	scaledCounts = [...]int{7, 3} // paper-length, scaled
)

const warmSetSeed = 1 // seeds the warm key set, whatever the workload seed

var (
	jobKinds   = []string{"simple", "serialmem", "nonseg", "cray", "scoreboard", "tomasulo", "multi", "ooo", "ruu", "vector"}
	sweepKinds = []string{"multi", "ooo", "ruu"}
	// scaledKinds leaves out the vector machine, which runs only at
	// paper lengths, and the RUU, whose extended reference ladder
	// builds some 70 MB of reduced traces per run: at well under 1% of
	// requests those runs alone would set the p99 and make it
	// seed-dependent. The sweep workload covers the RUU's ladder.
	scaledKinds   = []string{"simple", "serialmem", "nonseg", "cray", "scoreboard", "tomasulo", "multi", "ooo"}
	vectorLoops   = []int{1, 2, 3, 4, 7, 8, 9, 10, 12}
	scaledLengths = []int{400, 1000, 2000}
)

type reqKind uint8

const (
	hitReq reqKind = iota
	coldReq
	sweepReq
)

// request is one generated submission. The program under test sees
// only path and body; the rest is the generator's record for checking
// the answer.
type request struct {
	due   time.Duration // offset from the phase's start
	kind  reqKind
	path  string
	body  []byte
	key   string         // content key the answer must carry
	job   *serve.JobSpec // canonical cold job
	sweep *dse.SweepSpec // canonical routed sweep
}

// deck deals the values 0..len(counts)-1, value i counts[i] times per
// pass, in a seeded order that is reshuffled each pass. A run's mix
// then matches the stated shares within one pass instead of only on
// average, so runs on different seeds differ in which requests they
// send, not in how many of each kind.
type deck struct {
	cards []int
	next  int
}

func newDeck(counts ...int) *deck {
	d := &deck{}
	for v, n := range counts {
		for i := 0; i < n; i++ {
			d.cards = append(d.cards, v)
		}
	}
	return d
}

// uniform is a deck of one card per value 0..n-1.
func uniform(n int) *deck {
	counts := make([]int, n)
	for i := range counts {
		counts[i] = 1
	}
	return newDeck(counts...)
}

func (d *deck) deal(rng *rand.Rand) int {
	if d.next == 0 {
		rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	v := d.cards[d.next]
	d.next = (d.next + 1) % len(d.cards)
	return v
}

// generator makes the seeded request stream: the same seed gives the
// same schedule and the same request bytes.
type generator struct {
	rng    *rand.Rand
	warm   []serve.JobSpec // the canonical warm key set
	seen   map[string]bool // keys already issued
	scaled map[int][]int   // length -> kernels that build at it and that the extrapolator accepts

	mix, scaledMix, jobKind, scaledKind, sweepKind, loopCount *deck
}

func newGenerator(seed int64, warm int) (*generator, error) {
	scaled := map[int][]int{}
	for _, n := range scaledLengths {
		for num := 1; num <= 14; num++ {
			k, extra, err := loops.ForScale(num, n)
			if err == nil && extra == 0 && core.CanExtrapolate(k.SharedTrace()) == nil {
				scaled[n] = append(scaled[n], num)
			}
		}
		if len(scaled[n]) < 2 {
			return nil, fmt.Errorf("fewer than two kernels extrapolate at length %d", n)
		}
	}
	seen := map[string]bool{}
	// The warm key set is the same for every seed, so that computing it
	// (part of set-up) costs the same on every run; the seed varies the
	// traffic.
	w := withDecks(&generator{rng: rand.New(rand.NewSource(warmSetSeed)), seen: seen, scaled: scaled})
	for len(w.warm) < warm {
		w.warm = append(w.warm, w.paperJob())
	}
	return withDecks(&generator{rng: rand.New(rand.NewSource(seed)), warm: w.warm, seen: seen, scaled: scaled}), nil
}

func withDecks(g *generator) *generator {
	g.mix = newDeck(mixCounts[:]...)
	g.scaledMix = newDeck(scaledCounts[:]...)
	g.jobKind = uniform(len(jobKinds))
	g.scaledKind = uniform(len(scaledKinds))
	g.sweepKind = uniform(len(sweepKinds))
	g.loopCount = uniform(3) // 2, 3 or 4 kernels per paper-length job
	return g
}

// schedule draws a Poisson arrival stream at rate requests/s for d.
func (g *generator) schedule(rate float64, d time.Duration) []request {
	var out []request
	t := time.Duration(0)
	for {
		t += time.Duration(g.rng.ExpFloat64() / rate * float64(time.Second))
		if t >= d {
			return out
		}
		r := request{due: t, path: "/v1/jobs?wait=1"}
		switch reqKind(g.mix.deal(g.rng)) {
		case hitReq:
			c := g.warm[g.rng.Intn(len(g.warm))]
			r.kind, r.body, r.key = hitReq, g.respell(c), serve.Key(c)
		case coldReq:
			var c serve.JobSpec
			if g.scaledMix.deal(g.rng) == 1 {
				c = g.scaledJob()
			} else {
				c = g.paperJob()
			}
			r.kind, r.body, r.key, r.job = coldReq, g.respell(c), serve.Key(c), &c
		default:
			body, sw := g.sweep()
			r.kind, r.path, r.body, r.key, r.sweep = sweepReq, "/v1/sweeps?wait=1", body, sw.Key(), &sw
		}
		out = append(out, r)
	}
}

// paperJob draws a never-seen job at the paper's loop lengths.
func (g *generator) paperJob() serve.JobSpec {
	kind, n := jobKinds[g.jobKind.deal(g.rng)], 2+g.loopCount.deal(g.rng)
	for {
		m := serve.MachineSpec{Kind: kind, Mem: 1 + g.rng.Intn(20), Br: 1 + g.rng.Intn(8)}
		g.knobs(&m)
		pool := vectorLoops
		if m.Kind != "vector" {
			pool = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}
		}
		spec := serve.JobSpec{Machine: m, Workload: serve.WorkloadSpec{Loops: g.loopList(pool, n)}}
		if c, ok := g.fresh(spec); ok {
			return c
		}
	}
}

// scaledJob draws a never-seen job at a longer loop length under the
// extrapolator, over kernels the engine accepts at that length.
func (g *generator) scaledJob() serve.JobSpec {
	kind := scaledKinds[g.scaledKind.deal(g.rng)]
	for {
		m := serve.MachineSpec{Kind: kind, Mem: 1 + g.rng.Intn(20), Br: 1 + g.rng.Intn(8)}
		g.knobs(&m)
		n := scaledLengths[g.rng.Intn(len(scaledLengths))]
		spec := serve.JobSpec{
			Machine:     m,
			Workload:    serve.WorkloadSpec{Loops: g.loopList(g.scaled[n], 2)},
			Scale:       n,
			Extrapolate: true,
		}
		if c, ok := g.fresh(spec); ok {
			return c
		}
	}
}

func (g *generator) knobs(m *serve.MachineSpec) {
	switch m.Kind {
	case "multi", "ooo", "ruu":
		m.Units = 1 + g.rng.Intn(4)
		m.Bus = []string{"nbus", "1bus"}[g.rng.Intn(2)]
		if m.Kind == "ruu" {
			m.RUU = 10 * (1 + g.rng.Intn(6))
		}
	case "tomasulo":
		m.Stations = 1 + g.rng.Intn(6)
	}
}

// loopList picks n distinct kernels of pool in a random order.
func (g *generator) loopList(pool []int, n int) string {
	parts := make([]string, n)
	for i, j := range g.rng.Perm(len(pool))[:n] {
		parts[i] = strconv.Itoa(pool[j])
	}
	return strings.Join(parts, ",")
}

// fresh canonicalizes spec and claims its key unless an earlier
// request used it.
func (g *generator) fresh(spec serve.JobSpec) (serve.JobSpec, bool) {
	c, err := serve.Canonicalize(spec)
	if err != nil {
		return c, false
	}
	key := serve.Key(c)
	if g.seen[key] {
		return c, false
	}
	g.seen[key] = true
	return c, true
}

// respell writes c in a seeded variant spelling that canonicalizes
// back to c: kind case, loop order and separators, defaults spelled
// out or left implicit, bus aliases, knobs the machine ignores.
func (g *generator) respell(c serve.JobSpec) []byte {
	m := map[string]any{}
	kind := c.Machine.Kind
	switch g.rng.Intn(3) {
	case 0:
		kind = strings.ToUpper(kind)
	case 1:
		kind = strings.ToUpper(kind[:1]) + kind[1:]
	}
	m["kind"] = kind
	g.spell(m, "mem", c.Machine.Mem, 11)
	g.spell(m, "br", c.Machine.Br, 5)
	if c.Machine.Units > 0 {
		g.spell(m, "units", c.Machine.Units, 1)
		bus := c.Machine.Bus
		if g.rng.Intn(2) == 0 {
			bus = map[string]string{"nbus": "N-Bus", "1bus": "1-BUS"}[bus]
		}
		if bus != "nbus" || g.rng.Intn(2) == 0 {
			m["bus"] = bus
		}
	} else if g.rng.Intn(3) == 0 {
		m["units"] = 2 // ignored by single-issue machines
	}
	if c.Machine.RUU > 0 {
		g.spell(m, "ruu", c.Machine.RUU, 50)
	}
	if c.Machine.Stations > 0 {
		g.spell(m, "stations", c.Machine.Stations, 4)
	}
	nums := strings.Split(c.Workload.Loops, ",")
	g.rng.Shuffle(len(nums), func(i, j int) { nums[i], nums[j] = nums[j], nums[i] })
	doc := map[string]any{
		"machine":  m,
		"workload": map[string]any{"loops": strings.Join(nums, []string{",", ", "}[g.rng.Intn(2)])},
	}
	if c.Scale > 0 {
		doc["scale"], doc["extrapolate"] = c.Scale, true
	}
	b, err := json.Marshal(doc)
	if err != nil {
		panic(err) // maps of strings and ints always marshal
	}
	return b
}

// spell sets m[name] to v, leaving a default value out half the time.
func (g *generator) spell(m map[string]any, name string, v, def int) {
	if v != def || g.rng.Intn(2) == 0 {
		m[name] = v
	}
}

// sweep draws a never-seen small routed sweep: one dynamic-scheduling
// kind at a random memory and branch latency, two widths by both
// buses, four points on the scalar loops at paper lengths.
func (g *generator) sweep() ([]byte, dse.SweepSpec) {
	kind := sweepKinds[g.sweepKind.deal(g.rng)]
	for {
		w1 := 1 + g.rng.Intn(3)
		w2 := w1 + 1 + g.rng.Intn(3)
		body, err := json.Marshal(map[string]any{
			"base": map[string]any{"kind": kind, "mem": 1 + g.rng.Intn(20), "br": 1 + g.rng.Intn(8)},
			"axes": map[string]any{"width": []int{w2, w1}, "bus": []string{"1bus", "nbus"}},
		})
		if err != nil {
			panic(err) // maps of strings and ints always marshal
		}
		sw, err := dse.Parse(body)
		if err != nil || g.seen["sweep:"+sw.Key()] {
			continue
		}
		g.seen["sweep:"+sw.Key()] = true
		return body, sw
	}
}
