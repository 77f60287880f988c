package dse

import (
	"context"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mfup/internal/machdef"
)

func mustParse(t *testing.T, src string) SweepSpec {
	t.Helper()
	s, err := Parse([]byte(src))
	if err != nil {
		t.Fatalf("Parse(%s): %v", src, err)
	}
	return s
}

func TestExpandGrid(t *testing.T) {
	s := mustParse(t, `{
		"base": {"kind": "ooo"},
		"axes": {
			"width": {"from": 1, "to": 4},
			"bus": ["nbus", "1bus"]
		}
	}`)
	specs, expanded, invalid, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if expanded != 8 || invalid != 0 || len(specs) != 8 {
		t.Fatalf("expanded %d invalid %d distinct %d, want 8/0/8", expanded, invalid, len(specs))
	}
	// Deterministic order: sorted by content key.
	for i := 1; i < len(specs); i++ {
		if specs[i-1].Key() >= specs[i].Key() {
			t.Fatal("expansion not key-sorted")
		}
	}
}

// Knobs a kind ignores canonicalize away, so those combinations
// collapse into one distinct machine rather than multiplying.
func TestExpandDedupesIgnoredKnobs(t *testing.T) {
	s := mustParse(t, `{
		"base": {"kind": "cray"},
		"axes": {"ruu": [10, 20, 30]}
	}`)
	specs, expanded, _, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if expanded != 3 || len(specs) != 1 {
		t.Fatalf("expanded %d distinct %d, want 3 collapsing to 1", expanded, len(specs))
	}
}

// Combinations outside the space — an explicit bus count on a
// non-crossbar interconnect — are holes, not failures.
func TestExpandCountsInvalidHoles(t *testing.T) {
	s := mustParse(t, `{
		"base": {"kind": "ooo", "width": 4},
		"axes": {
			"bus": ["nbus", "xbar"],
			"buses": [1, 2]
		}
	}`)
	specs, expanded, invalid, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if expanded != 4 || invalid != 2 || len(specs) != 2 {
		t.Fatalf("expanded %d invalid %d distinct %d, want 4/2/2", expanded, invalid, len(specs))
	}
}

func TestExpandCapIsExplicit(t *testing.T) {
	s := mustParse(t, `{
		"base": {"kind": "ooo"},
		"axes": {"width": {"from": 1, "to": 100}, "ruu": {"from": 1, "to": 200}},
		"maxpoints": 50
	}`)
	if _, _, _, err := s.Expand(); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("over-budget expansion not refused: %v", err)
	}
}

func TestParseRejections(t *testing.T) {
	cases := []struct{ src, want string }{
		{`{"base": {"kind": "vector"}}`, "vector"},
		{`{"base": {"kind": "ooo"}, "axes": {"kind": ["cray", "vector"]}}`, "vector"},
		{`{"base": {"kind": "ooo"}, "axes": {"warp": [1]}}`, "unknown axis"},
		{`{"base": {"kind": "ooo"}, "axes": {"width": ["wide"]}}`, "integers"},
		{`{"base": {"kind": "ooo"}, "axes": {"bus": [3]}}`, "strings"},
		{`{"base": {"kind": "ooo"}, "axes": {"width": []}}`, "no values"},
		{`{"base": {"kind": "ooo"}, "axes": {"width": {"from": 5, "to": 1}}}`, "below"},
		{`{"base": {"kind": "ooo"}, "loops": "fortran"}`, "loops"},
		{`{"base": {"kind": "ooo"}, "typo": 1}`, "unknown field"},
		{`{"base": {"kind": "ooo"}, "prune": {"margin": -1}}`, "margin"},
	}
	for _, c := range cases {
		if _, err := Parse([]byte(c.src)); err == nil {
			t.Errorf("Parse(%s) accepted", c.src)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%s) error %q does not mention %q", c.src, err, c.want)
		}
	}
}

// The sweep key must ignore axis value order but track axis values.
func TestSweepKeyCanonical(t *testing.T) {
	a := mustParse(t, `{"base": {"kind": "ooo"}, "axes": {"width": [4, 1, 2]}}`)
	b := mustParse(t, `{"base": {"kind": "ooo"}, "axes": {"width": [1, 2, 4, 2]}}`)
	c := mustParse(t, `{"base": {"kind": "ooo"}, "axes": {"width": [1, 2, 8]}}`)
	if a.Key() != b.Key() {
		t.Error("axis order/duplicates changed the sweep key")
	}
	if a.Key() == c.Key() {
		t.Error("different axis values share a sweep key")
	}
}

func TestPruneKeepsFrontierAndFloor(t *testing.T) {
	points := []Point{
		{Key: "a", Cost: 100, Model: 1.0},
		{Key: "b", Cost: 200, Model: 0.5}, // dominated by a
		{Key: "c", Cost: 300, Model: 2.0},
		{Key: "d", Cost: 300, Model: 1.0}, // dominated by a and c
	}
	prune(points, PruneSpec{Margin: 0.10})
	if points[0].Pruned || points[2].Pruned {
		t.Fatal("model frontier pruned")
	}
	if !points[1].Pruned || !points[3].Pruned {
		t.Fatal("dominated points survived")
	}
	// The margin protects near-frontier points.
	points2 := []Point{
		{Key: "a", Cost: 100, Model: 1.0},
		{Key: "b", Cost: 200, Model: 0.95}, // within 10% of a: kept
	}
	prune(points2, PruneSpec{Margin: 0.10})
	if points2[1].Pruned {
		t.Fatal("near-frontier point inside the margin was pruned")
	}
	// The keep floor restores the best pruned points.
	points3 := []Point{
		{Key: "a", Cost: 100, Model: 1.0},
		{Key: "b", Cost: 200, Model: 0.5},
		{Key: "c", Cost: 300, Model: 0.4},
	}
	prune(points3, PruneSpec{Margin: 0.10, Keep: 2})
	kept := 0
	for _, p := range points3 {
		if !p.Pruned {
			kept++
		}
	}
	if kept != 2 || points3[1].Pruned {
		t.Fatalf("keep floor: kept %d (b pruned: %v), want 2 with b restored", kept, points3[1].Pruned)
	}
}

// A small end-to-end sweep: the issue-width axis of the out-of-order
// machine. Checks tallies, the frontier shape, and the acceptance
// bar: the model orders at least 90% of frontier pairs the way the
// simulation does.
func TestRunEndToEnd(t *testing.T) {
	s := mustParse(t, `{
		"base": {"kind": "ooo", "mem": 11, "br": 5},
		"axes": {
			"width": [1, 2, 4, 8],
			"bus": ["nbus", "1bus"]
		}
	}`)
	r, err := Run(context.Background(), s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Deduped != 8 || r.Simulated != 8 || r.Failed != 0 {
		t.Fatalf("distinct %d simulated %d failed %d, want 8/8/0", r.Deduped, r.Simulated, r.Failed)
	}
	if len(r.FrontierIdx) < 2 {
		t.Fatalf("frontier has %d points, want at least 2", len(r.FrontierIdx))
	}
	// Frontier is cost-ascending and rate-ascending by construction.
	for k := 1; k < len(r.FrontierIdx); k++ {
		prev, cur := &r.Points[r.FrontierIdx[k-1]], &r.Points[r.FrontierIdx[k]]
		if cur.Cost <= prev.Cost || cur.Rate <= prev.Rate {
			t.Fatalf("frontier not monotone: (%g,%g) then (%g,%g)", prev.Cost, prev.Rate, cur.Cost, cur.Rate)
		}
	}
	if r.Model.Pairs > 0 && r.Model.FrontierAgreement < 0.9 {
		t.Errorf("model agrees on %.0f%% of frontier pairs, want >= 90%%", 100*r.Model.FrontierAgreement)
	}
	// Rendering must not choke, and JSON must round-trip.
	if out := r.Render(); !strings.Contains(out, "Pareto frontier") {
		t.Error("Render missing frontier section")
	}
	if _, err := r.JSON(); err != nil {
		t.Errorf("JSON: %v", err)
	}
	if csvOut, err := r.CSV(); err != nil || !strings.Contains(csvOut, "cost,rate,model") {
		t.Errorf("CSV: %v", err)
	}
}

// Pruning plus the journal: a pruned sweep simulates every point the
// model keeps and fails none, its model orders the simulated frontier
// the way the simulator does, and a resume against the journal
// simulates nothing and serves every kept point from it, with the same
// frontier and rates — while a journal from a different workload misses
// by construction. Two grids: the replicated-reciprocal axis is the
// guaranteed-dominated dimension (the scalar loops issue no Recip
// operations, so the second copy raises the cost at an identical model
// rate and must be pruned), and a 192-point grid over three kinds,
// whose ruu axis is a no-op for multi and ooo, must prune at least half
// of its distinct machines.
func TestRunPruneAndResume(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  string
		// The least distinct machines the grid must hold, and the least
		// share of them the model must prune.
		minDeduped  int
		minPruned   float64
		respellLoad bool // also run a different workload against the journal
	}{
		{"recip", `{
			"base": {"kind": "multi", "mem": 11, "br": 5},
			"axes": {"width": {"from": 1, "to": 6}, "fucount.Recip": [1, 2]},
			"prune": {"margin": 0.05, "keep": 2}
		}`, 12, 0.01, true},
		{"kinds192", `{
			"base": {"kind": "ooo", "mem": 11, "br": 5},
			"axes": {
				"kind": ["multi", "ooo", "ruu"],
				"width": [1, 2, 3, 4],
				"bus": ["nbus", "1bus"],
				"mem": [5, 11],
				"br": [2, 5],
				"ruu": [25, 50]
			},
			"prune": {"margin": 0.15, "keep": 8}
		}`, 100, 0.5, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := mustParse(t, tc.src)
			path := filepath.Join(t.TempDir(), "sweep.jsonl")
			run := func(s SweepSpec) *Report {
				t.Helper()
				j, err := OpenJournal(path)
				if err != nil {
					t.Fatal(err)
				}
				r, err := Run(context.Background(), s, Options{Journal: j})
				if err != nil {
					t.Fatal(err)
				}
				if err := j.Close(); err != nil {
					t.Fatal(err)
				}
				return r
			}
			r1 := run(s)
			t.Logf("%d distinct machines, %d pruned, %d simulated; frontier of %d, agreement %.2f over %d pairs",
				r1.Deduped, r1.Pruned, r1.Simulated, len(r1.FrontierIdx), r1.Model.FrontierAgreement, r1.Model.Pairs)
			kept := r1.Deduped - r1.Pruned
			if r1.Deduped < tc.minDeduped || float64(r1.Pruned) < tc.minPruned*float64(r1.Deduped) {
				t.Fatalf("%d distinct machines, %d pruned; want at least %d, and a share of %.2f pruned",
					r1.Deduped, r1.Pruned, tc.minDeduped, tc.minPruned)
			}
			if r1.Failed != 0 || r1.Simulated != kept {
				t.Fatalf("%d failed, %d simulated; want 0 and the %d the model kept", r1.Failed, r1.Simulated, kept)
			}
			// A frontier with no pairs to order reads an agreement of 0.
			if len(r1.FrontierIdx) == 0 || r1.Model.FrontierAgreement < 0.9 {
				t.Fatalf("frontier of %d points, model agreement %.2f over %d pairs; want a frontier and at least 0.90",
					len(r1.FrontierIdx), r1.Model.FrontierAgreement, r1.Model.Pairs)
			}

			r2 := run(s)
			if r2.Simulated != 0 || r2.FromJournal != kept {
				t.Fatalf("resume simulated %d, journal-served %d; want 0 and %d", r2.Simulated, r2.FromJournal, kept)
			}
			if !reflect.DeepEqual(r2.FrontierIdx, r1.FrontierIdx) {
				t.Fatalf("resumed frontier %v, original %v", r2.FrontierIdx, r1.FrontierIdx)
			}
			for i := range r1.Points {
				if r1.Points[i].Rate != r2.Points[i].Rate {
					t.Fatalf("point %d: resumed rate %v != original %v", i, r2.Points[i].Rate, r1.Points[i].Rate)
				}
			}

			if !tc.respellLoad {
				return
			}
			// Same machines, different workload: every key misses.
			s3 := mustParse(t, strings.Replace(tc.src, `"prune"`, `"scale": 50000, "extrapolate": true, "prune"`, 1))
			if r3 := run(s3); r3.FromJournal != 0 {
				t.Fatalf("journal served %d points across a workload change", r3.FromJournal)
			}
		})
	}
}

// Extrapolated rates must be bit-identical to full simulation, at the
// paper lengths and past a kernel's layout maximum (scale 100000 on
// the scalar loops): the workload resolves the same way whether or not
// the sweep asks for the engine, so one point key names one rate.
func TestRunExtrapolateBitIdentical(t *testing.T) {
	for _, src := range []string{
		`{"base": {"kind": "ruu", "width": 2}, "axes": {"ruu": [10, 50]}%s}`,
		`{"base": {"kind": "cray"}, "axes": {"mem": [5, 11]}, "loops": "scalar", "scale": 100000%s}`,
	} {
		full := mustParse(t, strings.Replace(src, "%s", "", 1))
		fast := mustParse(t, strings.Replace(src, "%s", `, "extrapolate": true`, 1))
		rFull, err := Run(context.Background(), full, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rFast, err := Run(context.Background(), fast, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range rFull.Points {
			if math.Float64bits(rFull.Points[i].Rate) != math.Float64bits(rFast.Points[i].Rate) {
				t.Errorf("scale %d point %d: extrapolated rate %v != simulated %v",
					full.Scale, i, rFast.Points[i].Rate, rFull.Points[i].Rate)
			}
		}
		if !reflect.DeepEqual(rFull.Notes, rFast.Notes) {
			t.Errorf("scale %d: notes diverged:\n extrapolated %q\n simulated    %q", full.Scale, rFast.Notes, rFull.Notes)
		}
	}
}

// Extrapolate stays out of the point key, so a sweep run without the
// engine and one run with it share journal lines. What the first
// journals past a layout maximum must be what the second computes.
func TestJournalSharedAcrossExtrapolation(t *testing.T) {
	src := `{"base": {"kind": "cray"}, "axes": {"mem": [5, 11]}, "scale": 100000%s}`
	off := mustParse(t, strings.Replace(src, "%s", "", 1))
	on := mustParse(t, strings.Replace(src, "%s", `, "extrapolate": true`, 1))
	fresh, err := Run(context.Background(), on, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(filepath.Join(t.TempDir(), "points.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, err := Run(context.Background(), off, Options{Journal: j}); err != nil {
		t.Fatal(err)
	}
	warm, err := Run(context.Background(), on, Options{Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	if warm.FromJournal != len(warm.Points) {
		t.Fatalf("journal served %d of %d points", warm.FromJournal, len(warm.Points))
	}
	for i := range warm.Points {
		if math.Float64bits(warm.Points[i].Rate) != math.Float64bits(fresh.Points[i].Rate) {
			t.Errorf("point %s: journal replayed %v, extrapolated sweep computes %v",
				warm.Points[i].Key, warm.Points[i].Rate, fresh.Points[i].Rate)
		}
	}
}

// The journal key embeds the machine's content address, so two
// distinct specs can never collide.
func TestPointKeyDiscriminates(t *testing.T) {
	s := SweepSpec{Loops: "scalar"}
	a, _ := machdef.Canonicalize(machdef.Spec{Kind: "ooo", Width: 2})
	b, _ := machdef.Canonicalize(machdef.Spec{Kind: "ooo", Width: 4})
	if pointKey(s, a.Key()) == pointKey(s, b.Key()) {
		t.Fatal("distinct machines share a journal key")
	}
	s2 := s
	s2.Scale = 1000
	if pointKey(s, a.Key()) == pointKey(s2, a.Key()) {
		t.Fatal("different scales share a journal key")
	}
}
