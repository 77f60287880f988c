package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mfup/internal/dse"
)

const smallSweep = `{
	"base": {"kind": "ooo", "mem": 11, "br": 5},
	"axes": {"width": [1, 2]}
}`

// A sweep submitted with ?wait=1 computes, caches under its content
// key, and replays byte-identically — in its own key namespace, so
// the single-job routes never see it.
func TestSweepSubmitWaitCachesAndReplays(t *testing.T) {
	_, hs := testServer(t, Config{Workers: 2})

	code, _, jr := post(t, hs.URL+"/v1/sweeps?wait=1", smallSweep)
	if code != http.StatusOK || jr.Status != "done" {
		t.Fatalf("sweep submit: %d %+v", code, jr)
	}
	if jr.Cached {
		t.Error("first sweep claims a cache hit")
	}
	var rep dse.Report
	if err := json.Unmarshal(jr.Result, &rep); err != nil {
		t.Fatalf("report %s: %v", jr.Result, err)
	}
	if rep.Deduped != 2 || rep.Simulated != 2 || len(rep.FrontierIdx) == 0 {
		t.Fatalf("report tallies: %+v", rep)
	}

	// Replay: warm, byte-identical.
	code2, _, jr2 := post(t, hs.URL+"/v1/sweeps?wait=1", smallSweep)
	if code2 != http.StatusOK || !jr2.Cached {
		t.Fatalf("second submit not served from cache: %d %+v", code2, jr2)
	}
	if string(jr2.Result) != string(jr.Result) {
		t.Error("cached sweep report is not byte-identical")
	}

	// GET by the sweep's content key.
	resp, err := http.Get(hs.URL + "/v1/sweeps/" + jr.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET sweep: %d", resp.StatusCode)
	}

	// The same key on the single-job route must miss: the namespaces
	// are disjoint by construction.
	resp2, err := http.Get(hs.URL + "/v1/jobs/" + jr.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("sweep key leaked into the job namespace: %d", resp2.StatusCode)
	}
}

// Structurally bad sweep specs are refused at admission with 400 —
// including grids over the expansion cap, which must never reach a
// worker.
func TestSweepBadSpecRejected(t *testing.T) {
	_, hs := testServer(t, Config{Workers: 1})
	for _, doc := range []string{
		`{"base": {"kind": "warp"}, "axes": {}}`,
		`{"base": {"kind": "ooo"}, "axes": {"threads": [1, 2]}}`,
		`{"base": {"kind": "ooo"}, "axes": {"width": {"from": 1, "to": 200}}, "maxpoints": 10}`,
	} {
		code, _, _ := post(t, hs.URL+"/v1/sweeps?wait=1", doc)
		if code != http.StatusBadRequest {
			t.Errorf("%s: got %d, want 400", doc, code)
		}
	}
}

// The shared sweep point journal survives a daemon restart: a second
// daemon serving the same sweep simulates nothing, even with a cold
// result cache.
func TestSweepJournalSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")

	s1, hs1 := testServer(t, Config{Workers: 2, SweepJournalPath: path})
	code, _, jr := post(t, hs1.URL+"/v1/sweeps?wait=1", smallSweep)
	if code != http.StatusOK || jr.Status != "done" {
		t.Fatalf("first daemon: %d %+v", code, jr)
	}
	hs1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	s2, hs2 := testServer(t, Config{Workers: 2, SweepJournalPath: path})
	defer func() { _ = s2 }()
	code2, _, jr2 := post(t, hs2.URL+"/v1/sweeps?wait=1", smallSweep)
	if code2 != http.StatusOK || jr2.Status != "done" {
		t.Fatalf("second daemon: %d %+v", code2, jr2)
	}
	if jr2.Cached {
		t.Fatal("second daemon has a cold result cache; the hit must come from the point journal")
	}
	var rep dse.Report
	if err := json.Unmarshal(jr2.Result, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Simulated != 0 || rep.FromJournal != 2 {
		t.Fatalf("restarted sweep simulated %d, journal-served %d; want 0 and 2", rep.Simulated, rep.FromJournal)
	}
}

// Sweep documents that ask for unbounded work are refused at admission
// with 400, and the daemon stays ready: a range whose step wraps past
// the largest int, a range of two billion values, and a maxpoints
// above dse.DefaultMaxPoints.
func TestSweepPoisonDocumentsRefused(t *testing.T) {
	_, hs := testServer(t, Config{Workers: 1})
	for _, tc := range []struct{ doc, want string }{
		{`{"base":{"kind":"ooo"},"axes":{"width":{"from":9223372036854775800,"to":9223372036854775807,"step":5}}}`, "no valid machine definitions"},
		{`{"base":{"kind":"ooo"},"axes":{"width":{"from":1,"to":2000000000}}}`, `axis \"width\"`},
		{`{"base":{"kind":"ooo"},"axes":{"width":{"from":1,"to":100},"mem":{"from":1,"to":40},"br":{"from":1,"to":50}},"maxpoints":1000000}`, "exceeds the service limit"},
	} {
		resp, err := http.Post(hs.URL+"/v1/sweeps?wait=1", "application/json", strings.NewReader(tc.doc))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), tc.want) {
			t.Errorf("%s: %d %s, want 400 naming %q", tc.doc, resp.StatusCode, body, tc.want)
		}
	}
	resp, err := http.Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/readyz after the poison documents: %d, want 200", resp.StatusCode)
	}
}
