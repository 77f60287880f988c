package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"mfup/internal/dse"
	"mfup/internal/serve"
)

// ascending returns n samples of 1..n nanoseconds, shuffled by order.
func ascending(n int) samples {
	s := make(samples, n)
	for i := range s {
		s[i] = time.Duration(n - i)
	}
	return s
}

func TestPercentileIsNearestRank(t *testing.T) {
	s := ascending(100)
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}, {99.5, 100}, {12.3, 13}} {
		if got := s.percentile(c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := ascending(2).median(); got != 1 {
		t.Errorf("median of {1, 2} = %v, want the lower sample", got)
	}
	if got := (samples{}).median(); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n       int
		want    time.Duration
		wantPct float64
	}{
		{1000, 990, 99},
		{100, 90, 90},
		{11, 1, 100.0 / 11},
		{10, 10, 100}, // no percentile has ten beyond it: the maximum
		{1, 1, 100},
	} {
		s := ascending(c.n)
		v, pct := s.tail()
		if v != c.want || math.Abs(pct-c.wantPct) > 1e-9 {
			t.Errorf("tail of 1..%d = %v at p%.3f, want %v at p%.3f", c.n, v, pct, c.want, c.wantPct)
		}
		if c.n > tailBeyond {
			beyond := 0
			for _, x := range s {
				if x > v {
					beyond++
				}
			}
			if beyond != tailBeyond {
				t.Errorf("tail of 1..%d leaves %d samples beyond it, want %d", c.n, beyond, tailBeyond)
			}
		}
	}
}

func TestSelfTimeOnSyntheticTree(t *testing.T) {
	// root [0,100] has children a [10,40] and b [30,60], which overlap,
	// and d [90,120], which outlives it; a has a child c [15,20].
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 2, Name: "c", Start: 15, End: 20},
		{ID: 5, Parent: 1, Name: "d", Start: 90, End: 120},
	}
	want := map[int64]time.Duration{
		1: 100 - 50 - 10, // children cover [10,60] and [90,100]
		2: 30 - 5,
		3: 30,
		4: 5,
		5: 30,
	}
	self := selfTimes(spans)
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time %v, want %v", id, self[id], w)
		}
	}
	rows := layerTable(spans)
	if rows[0].Name != "root" || rows[0].Self != 40 || rows[0].Total != 100 {
		t.Errorf("layer table leads with %+v, want root with self 40 of 100", rows[0])
	}
}

func TestGeneratorIsDeterministic(t *testing.T) {
	a, err := newGenerator(DefaultSeed, warmSetSize)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newGenerator(DefaultSeed, warmSetSize)
	if err != nil {
		t.Fatal(err)
	}
	other, err := newGenerator(HeldOutSeed, warmSetSize)
	if err != nil {
		t.Fatal(err)
	}
	ra := a.schedule(serviceRate, 5*time.Second)
	rb := b.schedule(serviceRate, 5*time.Second)
	ro := other.schedule(serviceRate, 5*time.Second)
	if len(ra) == 0 || len(ra) != len(rb) {
		t.Fatalf("schedules of one seed have %d and %d requests", len(ra), len(rb))
	}
	for i := range ra {
		x, y := ra[i], rb[i]
		if x.due != y.due || x.kind != y.kind || x.path != y.path || x.key != y.key || !bytes.Equal(x.body, y.body) {
			t.Fatalf("request %d differs under one seed:\n%s\n%s", i, x.body, y.body)
		}
	}
	same := len(ro) == len(ra)
	for i := 0; same && i < len(ra); i++ {
		same = ra[i].due == ro[i].due && bytes.Equal(ra[i].body, ro[i].body)
	}
	if same {
		t.Error("the held-out seed generated the default seed's schedule")
	}
}

func TestGeneratedRequestsCanonicalizeToTheirKeys(t *testing.T) {
	g, err := newGenerator(DefaultSeed, warmSetSize)
	if err != nil {
		t.Fatal(err)
	}
	warm := map[string]bool{}
	for _, c := range g.warm {
		warm[serve.Key(c)] = true
	}
	count := map[reqKind]int{}
	reqs := g.schedule(serviceRate, 30*time.Second)
	for _, r := range reqs {
		count[r.kind]++
		if r.kind == sweepReq {
			sw, err := dse.Parse(r.body)
			if err != nil || sw.Key() != r.key {
				t.Fatalf("sweep %s: key %v, err %v; want %s", r.body, sw.Key(), err, r.key)
			}
			continue
		}
		var spec serve.JobSpec
		if err := json.Unmarshal(r.body, &spec); err != nil {
			t.Fatal(err)
		}
		c, err := serve.Canonicalize(spec)
		if err != nil || serve.Key(c) != r.key {
			t.Fatalf("job %s: canonicalizes to %v (err %v), want key %s", r.body, serve.Key(c), err, r.key)
		}
		if (r.kind == hitReq) != warm[r.key] {
			t.Fatalf("job %s: kind %d, but warm key set membership is %v", r.body, r.kind, warm[r.key])
		}
	}
	n := float64(len(reqs))
	if h := float64(count[hitReq]) / n; h < 0.79 || h > 0.81 {
		t.Errorf("hit share %.3f, want 0.80 within a pass of the deck", h)
	}
	if count[coldReq] == 0 || count[sweepReq] == 0 {
		t.Errorf("mix %v lacks cold jobs or sweeps", count)
	}
}

func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json is not beside this directory")
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	e2e := e2eMetrics(1, 1, 1, 1, 1)
	if len(doc.EndToEnd) != len(e2e) {
		t.Errorf("%d end-to-end metrics declared, %d reported", len(doc.EndToEnd), len(e2e))
	}
	for _, m := range doc.EndToEnd {
		if e2e[m.Name].Unit != m.Unit {
			t.Errorf("end-to-end %s: declared unit %q, reported %q", m.Name, m.Unit, e2e[m.Name].Unit)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d reported", len(doc.PerLayer), len(perLayer))
	}
	declared := map[string]layerSpec{}
	for _, m := range doc.PerLayer {
		declared[m.Name] = layerSpec{m.Name, m.Unit, m.Better}
	}
	for _, l := range perLayer {
		if declared[l.name] != l {
			t.Errorf("per-layer %s: declared %+v, reported %+v", l.name, declared[l.name], l)
		}
	}
}

// smoke runs a workload briefly and holds it to its output checks.
func smoke(t *testing.T, name string, trace bool) *outcome {
	if testing.Short() {
		t.Skip("smoke runs take seconds")
	}
	cfg := &config{seed: DefaultSeed, seconds: time.Second, trace: trace, workers: runtime.NumCPU(), outDir: t.TempDir()}
	if trace {
		cfg.tr = NewTracer()
	}
	out, err := workloads[name](cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.attempted == 0 || out.failed != 0 {
		t.Fatalf("%s: %d of %d operations failed: %v", name, out.failed, out.attempted, out.problems)
	}
	for k, m := range out.e2e {
		if !(m.Value > 0) {
			t.Errorf("%s: end-to-end %s = %v, want a positive reading", name, k, m.Value)
		}
	}
	return out
}

func TestSmokeTables(t *testing.T) { smoke(t, "tables", false) }
func TestSmokeSweep(t *testing.T)  { smoke(t, "sweep", false) }
func TestSmokeService(t *testing.T) {
	smoke(t, "service", false)
}

func TestSmokeTracedTables(t *testing.T) {
	out := smoke(t, "tables", true)
	for _, name := range []string{"tables.t7_ms", "core.ruu.ns_per_instr", "runner.tasks", "limits.ns_per_instr"} {
		if !(out.layers[name] > 0) {
			t.Errorf("traced tables: %s = %v, want a positive reading", name, out.layers[name])
		}
	}
}
