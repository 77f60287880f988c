package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mfup/internal/dse"
	"mfup/internal/serve"
)

// A real sweep, small enough to resolve in well under a second:
// 8 distinct machines over the scalar loops.
const sweepDoc = `{
	"base": {"kind": "ooo", "mem": 11, "br": 5},
	"axes": {
		"width": [1, 2, 4, 8],
		"bus": ["nbus", "1bus"]
	}
}`

// newWorker starts a real serve.Server behind an httptest listener —
// the routed sweep tests exercise the genuine worker admission path,
// not stubs.
func newWorker(t *testing.T) *httptest.Server {
	t.Helper()
	s, err := serve.New(serve.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return ts
}

// localReport runs the same sweep in process — the byte-identity
// reference every routed run is compared against.
func localReport(t *testing.T) []byte {
	t.Helper()
	sw, err := dse.Parse([]byte(sweepDoc))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := dse.Run(context.Background(), sw, dse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	// The response envelope embeds the report as a json.RawMessage,
	// which compacts it — on the single-process daemon exactly as on
	// the router — so the reference compares compacted too.
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func submitSweep(t *testing.T, rt *Router, doc string) (status int, env serve.JobResponse, hdr http.Header) {
	t.Helper()
	w := post(t, rt.Handler(), "/v1/sweeps?wait=1", doc)
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatalf("sweep response %d: %v: %s", w.Code, err, w.Body)
	}
	return w.Code, env, w.Result().Header
}

func TestRoutedSweepMatchesLocalRunByteForByte(t *testing.T) {
	if testing.Short() {
		t.Skip("routed sweep runs real simulations")
	}
	want := localReport(t)
	w1, w2, w3 := newWorker(t), newWorker(t), newWorker(t)
	rt, err := New(Config{
		Peers:         []string{w1.URL, w2.URL, w3.URL},
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	status, env, _ := submitSweep(t, rt, sweepDoc)
	if status != http.StatusOK || env.Status != "done" {
		t.Fatalf("routed sweep: %d %+v", status, env)
	}
	if string(env.Result) != string(want) {
		t.Errorf("routed report diverged from the local run:\nrouted: %.200s\nlocal:  %.200s", env.Result, want)
	}
	st := rt.Snapshot()
	if st.SweepsRouted != 1 || st.PointsDone != 8 {
		t.Errorf("sweeps_routed=%d points_done=%d, want 1/8", st.SweepsRouted, st.PointsDone)
	}

	// A repeat is a router-registry hit: same bytes, cached marker,
	// no further points dispatched.
	status, env2, _ := submitSweep(t, rt, sweepDoc)
	if status != http.StatusOK || env2.Status != "done" || !env2.Cached {
		t.Fatalf("repeated sweep: %d %+v", status, env2)
	}
	if string(env2.Result) != string(want) {
		t.Error("repeated sweep served different bytes")
	}
	if st := rt.Snapshot(); st.PointsDone != 8 {
		t.Errorf("repeat re-dispatched points: points_done=%d", st.PointsDone)
	}

	// GET serves the report too.
	req := httptest.NewRequest(http.MethodGet, "/v1/sweeps/"+env.ID, nil)
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	var env3 serve.JobResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &env3); err != nil || env3.Status != "done" {
		t.Fatalf("GET sweep: %d %v %s", rec.Code, err, rec.Body)
	}
	if string(env3.Result) != string(want) {
		t.Error("GET served different bytes")
	}
}

// The chaos headline, in process: one of three workers is dead from
// the start, the routed sweep still completes, its report is
// byte-identical to an unfaulted local run, and the dead worker's
// points were provably reassigned to survivors.
func TestRoutedSweepReassignsDeadPeersPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("routed sweep runs real simulations")
	}
	want := localReport(t)
	workers := []*httptest.Server{newWorker(t), newWorker(t), newWorker(t)}
	urls := []string{workers[0].URL, workers[1].URL, workers[2].URL}

	// Pick the victim deterministically: a worker that owns at least
	// one of the sweep's point keys, so reassignment must happen.
	sw, err := dse.Parse([]byte(sweepDoc))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := dse.PlanSweep(sw)
	if err != nil {
		t.Fatal(err)
	}
	owned := map[string]int{}
	for _, i := range pl.Need {
		owned[Owner(pl.Report.Points[i].Key, urls)]++
	}
	victim := -1
	for i, u := range urls {
		if owned[u] > 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no worker owns any point — degenerate ranking")
	}
	workers[victim].Close() // dead before the sweep starts: every dispatch to it is refused

	rt, err := New(Config{
		Peers:         urls,
		ProbeInterval: time.Hour, // membership stays optimistic; failover carries the load
		HedgeAfter:    200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	status, env, _ := submitSweep(t, rt, sweepDoc)
	if status != http.StatusOK || env.Status != "done" {
		t.Fatalf("routed sweep with a dead peer: %d %+v", status, env)
	}
	if string(env.Result) != string(want) {
		t.Errorf("report with a dead peer diverged from the unfaulted local run:\nrouted: %.200s\nlocal:  %.200s", env.Result, want)
	}
	st := rt.Snapshot()
	if st.PointsDone != 8 {
		t.Errorf("points_done = %d, want 8", st.PointsDone)
	}
	if st.PointsReassigned < int64(owned[urls[victim]]) {
		t.Errorf("points_reassigned = %d, want >= %d (the victim's share)", st.PointsReassigned, owned[urls[victim]])
	}
}

// The router refuses the same unbounded sweep documents a worker does,
// at admission and without dispatching: it plans routed sweeps in its
// own process, so one of them would otherwise exhaust the router.
func TestPoisonSweepsRefusedAtRouter(t *testing.T) {
	a := newStubPeer(t)
	rt := newTestRouter(t, Config{}, a)
	for _, doc := range []string{
		`{"base":{"kind":"ooo"},"axes":{"width":{"from":9223372036854775800,"to":9223372036854775807,"step":5}}}`,
		`{"base":{"kind":"ooo"},"axes":{"width":{"from":1,"to":2000000000}}}`,
		`{"base":{"kind":"ooo"},"axes":{"width":{"from":1,"to":100},"mem":{"from":1,"to":40},"br":{"from":1,"to":50}},"maxpoints":1000000}`,
	} {
		if w := post(t, rt.Handler(), "/v1/sweeps?wait=1", doc); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", doc, w.Code)
		}
	}
	if a.hits.Load() != 0 {
		t.Errorf("a poison sweep was dispatched %d times", a.hits.Load())
	}
	if st := rt.Snapshot(); st.BadSpec != 3 || st.Forwarded != 0 {
		t.Errorf("stats %+v, want bad_spec=3 forwarded=0", st)
	}
}
