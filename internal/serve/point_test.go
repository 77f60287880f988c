package serve

import (
	"encoding/json"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mfup/internal/dse"
)

const pointDoc = `{"spec":{"kind":"ooo","width":2,"mem":11,"br":5}}`

func TestPointSubmitComputesAndReplays(t *testing.T) {
	_, hs := testServer(t, Config{Workers: 2})

	code, _, jr := post(t, hs.URL+"/v1/points?wait=1", pointDoc)
	if code != http.StatusOK || jr.Status != "done" {
		t.Fatalf("point submit: %d %+v", code, jr)
	}
	key, rate, err := ParsePointResult(jr.Result)
	if err != nil {
		t.Fatalf("ParsePointResult(%s): %v", jr.Result, err)
	}
	if !strings.HasPrefix(key, "dse-point/v1:") {
		t.Errorf("point key %q not in the dse point namespace", key)
	}
	if jr.ID != key {
		t.Errorf("envelope id %q != point key %q", jr.ID, key)
	}
	if !(rate > 0) {
		t.Errorf("rate %v not positive", rate)
	}

	// The hex-float wire rate round-trips exactly.
	var pr struct {
		Rate string `json:"rate"`
	}
	mustUnmarshal(t, jr.Result, &pr)
	if back, _ := strconv.ParseFloat(pr.Rate, 64); back != rate {
		t.Errorf("hex rate %q does not round-trip: %v vs %v", pr.Rate, back, rate)
	}

	// A respelled duplicate (defaults spelled out) is the same point:
	// cache hit, byte-identical bytes.
	respelled := `{"spec":{"kind":"ooo","width":2,"mem":11,"br":5},"loops":"scalar","scale":0}`
	code2, _, jr2 := post(t, hs.URL+"/v1/points?wait=1", respelled)
	if code2 != http.StatusOK || !jr2.Cached {
		t.Fatalf("respelled point not served from cache: %d %+v", code2, jr2)
	}
	if string(jr2.Result) != string(jr.Result) {
		t.Error("cached point result is not byte-identical")
	}
}

// The point rate is the same number the in-process sweep driver
// would record — the contract cluster sharding is built on.
func TestPointMatchesLocalSweepRate(t *testing.T) {
	_, hs := testServer(t, Config{Workers: 2})
	_, _, jr := post(t, hs.URL+"/v1/points?wait=1", pointDoc)
	key, rate, err := ParsePointResult(jr.Result)
	if err != nil {
		t.Fatal(err)
	}

	sw, err := dse.Parse([]byte(`{"base":{"kind":"ooo","width":2,"mem":11,"br":5}}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := dse.Run(t.Context(), sw, dse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 1 {
		t.Fatalf("reference sweep has %d points", len(rep.Points))
	}
	if rep.Points[0].Key != key {
		t.Errorf("point key %q != sweep point key %q (the shared journal scheme broke)", key, rep.Points[0].Key)
	}
	if rep.Points[0].Rate != rate {
		t.Errorf("point rate %v != sweep rate %v (must be bit-identical)", rate, rep.Points[0].Rate)
	}
}

// Points and the sweep journal: a computed point lands in the shared
// journal, and a restarted daemon over the same journal serves the
// whole sweep containing it without re-simulating that point.
func TestPointFeedsSweepJournal(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "points.jsonl")
	s1, hs := testServer(t, Config{Workers: 2, SweepJournalPath: journal})

	if code, _, jr := post(t, hs.URL+"/v1/points?wait=1", pointDoc); code != http.StatusOK || jr.Status != "done" {
		t.Fatalf("point submit: %d %+v", code, jr)
	}
	// Release the journal flock before the successor opens it.
	if err := s1.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}

	// Fresh daemon, same journal: the sweep whose only point this is
	// resolves entirely from the journal.
	_, hs2 := testServer(t, Config{Workers: 2, SweepJournalPath: journal})
	code, _, jr := post(t, hs2.URL+"/v1/sweeps?wait=1", `{"base":{"kind":"ooo","width":2,"mem":11,"br":5}}`)
	if code != http.StatusOK || jr.Status != "done" {
		t.Fatalf("sweep over warm journal: %d %+v", code, jr)
	}
	var rep dse.Report
	mustUnmarshal(t, jr.Result, &rep)
	if rep.FromJournal != 1 || rep.Simulated != 0 {
		t.Errorf("fromjournal=%d simulated=%d, want 1/0 — the point journal must be shared", rep.FromJournal, rep.Simulated)
	}
}

func TestPointBadSpecsRejected(t *testing.T) {
	s, hs := testServer(t, Config{Workers: 1})
	for _, doc := range []string{
		`{`,
		`{"spec":{"kind":"no-such-kind"}}`,
		`{"spec":{"kind":"vector"}}`, // outside the sweep space
		`{"spec":{"kind":"ooo"},"loops":"everything"}`,
		`{"spec":{"kind":"ooo"},"scale":-1}`,
		`{"spec":{"kind":"ooo","fucount":{"FloatMul":2000000000}}}`, // past the construction bounds
		`{"spec":{"kind":"ooo","membanks":2000000000}}`,
	} {
		if code, _, _ := post(t, hs.URL+"/v1/points?wait=1", doc); code != http.StatusBadRequest {
			t.Errorf("point %s: status %d, want 400", doc, code)
		}
	}
	if got := s.Snapshot().BadSpec; got != 7 {
		t.Errorf("bad_spec = %d, want 7", got)
	}
	if got := s.Snapshot().Points; got != 7 {
		t.Errorf("points_submitted = %d, want 7", got)
	}
}

func TestParsePointResultRejectsGarbage(t *testing.T) {
	for _, raw := range []string{
		``,
		`{}`,
		`{"key":"k"}`,
		`{"key":"k","rate":"not-a-number"}`,
		`{"key":"k","rate":"-0x1p+1"}`, // non-positive
		`{"key":"k","rate":"+Inf"}`,    // not finite
		`{"key":"k","rate":"NaN"}`,
		`{"key":"","rate":"0x1p+1"}`,
	} {
		if _, _, err := ParsePointResult([]byte(raw)); err == nil {
			t.Errorf("ParsePointResult(%q) accepted garbage", raw)
		}
	}
	if key, rate, err := ParsePointResult([]byte(`{"key":"k","rate":"0x1.8p+1"}`)); err != nil || key != "k" || rate != 3 {
		t.Errorf("ParsePointResult round trip: %q %v %v", key, rate, err)
	}
}

// mustUnmarshal decodes JSON or fails the test.
func mustUnmarshal(t *testing.T, raw []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("unmarshaling %.120s: %v", raw, err)
	}
}
