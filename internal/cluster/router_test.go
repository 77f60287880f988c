package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mfup/internal/faultinject"
	"mfup/internal/serve"
)

const jobDoc = `{"machine":{"kind":"cray"},"workload":{"loops":"1"}}`

// stubPeer is a scriptable worker: its behavior is swappable at any
// point in a test, and it counts the requests it sees.
type stubPeer struct {
	ts   *httptest.Server
	hits atomic.Int64

	mu sync.Mutex
	fn http.HandlerFunc
}

func newStubPeer(t *testing.T) *stubPeer {
	t.Helper()
	p := &stubPeer{}
	p.fn = func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"id":"k","status":"done","result":{"from":%q}}`, p.url())
	}
	p.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			io.WriteString(w, "ready\n")
			return
		}
		p.hits.Add(1)
		p.mu.Lock()
		fn := p.fn
		p.mu.Unlock()
		fn(w, r)
	}))
	t.Cleanup(p.ts.Close)
	return p
}

func (p *stubPeer) url() string { return p.ts.URL }

func (p *stubPeer) set(fn http.HandlerFunc) {
	p.mu.Lock()
	p.fn = fn
	p.mu.Unlock()
}

func (p *stubPeer) shed(status, retryAfter int) {
	p.set(func(w http.ResponseWriter, r *http.Request) {
		if retryAfter > 0 {
			w.Header().Set("Retry-After", fmt.Sprint(retryAfter))
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		fmt.Fprintf(w, `{"error":"shedding","retry_after":%d}`, retryAfter)
	})
}

func (p *stubPeer) fail500() {
	p.set(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
}

// newTestRouter builds a router over the stubs with probing
// effectively off (tests drive membership explicitly) and a short
// hedge trigger.
func newTestRouter(t *testing.T, cfg Config, peers ...*stubPeer) *Router {
	t.Helper()
	for _, p := range peers {
		cfg.Peers = append(cfg.Peers, p.url())
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = time.Hour
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// post submits a body and returns the full response.
func post(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// rankStubs orders the stubs as the router would rank them for key.
func rankStubs(key string, peers ...*stubPeer) []*stubPeer {
	var urls []string
	byURL := map[string]*stubPeer{}
	for _, p := range peers {
		urls = append(urls, p.url())
		byURL[p.url()] = p
	}
	var out []*stubPeer
	for _, u := range Rank(key, urls) {
		out = append(out, byURL[u])
	}
	return out
}

// routerJobKey computes the content key the router derives for
// jobDoc — tests use it to know which stub is the owner. It goes
// through the same serve.Canonicalize/serve.Key pair the router
// uses, so test and router agree by construction.
func routerJobKey(t *testing.T, _ *Router) string {
	t.Helper()
	var spec serve.JobSpec
	if err := json.Unmarshal([]byte(jobDoc), &spec); err != nil {
		t.Fatal(err)
	}
	c, err := serve.Canonicalize(spec)
	if err != nil {
		t.Fatal(err)
	}
	return serve.Key(c)
}

func TestForwardRelaysWorkerBytesVerbatim(t *testing.T) {
	a := newStubPeer(t)
	want := `{"id":"k","status":"done","result":{"cycles":42}}` + "\n"
	a.set(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/jobs" || r.URL.RawQuery != "wait=1" {
			t.Errorf("worker saw %s?%s", r.URL.Path, r.URL.RawQuery)
		}
		b, _ := io.ReadAll(r.Body)
		if string(b) != jobDoc {
			t.Errorf("body not forwarded verbatim: %s", b)
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, want)
	})
	rt := newTestRouter(t, Config{}, a)
	w := post(t, rt.Handler(), "/v1/jobs?wait=1", jobDoc)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if got := w.Body.String(); got != want {
		t.Errorf("response not verbatim:\ngot  %q\nwant %q", got, want)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q not relayed", ct)
	}
	if st := rt.Snapshot(); st.Forwarded != 1 {
		t.Errorf("forwarded = %d, want 1", st.Forwarded)
	}
}

func TestBadSpecRefusedAtRouter(t *testing.T) {
	a := newStubPeer(t)
	rt := newTestRouter(t, Config{}, a)
	for _, doc := range []string{
		`{"machine":{"kind":"no-such-kind"}}`,
		`{"machine":{"kind":"ruu","bus":"xbar"}}`,                                       // the RUU takes no crossbar
		`{"machine":{"kind":"ruu","units":4,"ruu":200000000},"workload":{"loops":"1"}}`, // past the RUU size bound
	} {
		if w := post(t, rt.Handler(), "/v1/jobs", doc); w.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", doc, w.Code)
		}
	}
	if a.hits.Load() != 0 {
		t.Errorf("defective spec was dispatched %d times", a.hits.Load())
	}
	if st := rt.Snapshot(); st.BadSpec != 3 || st.Forwarded != 0 {
		t.Errorf("stats %+v, want bad_spec=3 forwarded=0", st)
	}
}

func TestFailoverOnPeerFailure(t *testing.T) {
	a, b := newStubPeer(t), newStubPeer(t)
	rt := newTestRouter(t, Config{}, a, b)
	ranked := rankStubs(routerJobKey(t, rt), a, b)
	ranked[0].fail500()

	w := post(t, rt.Handler(), "/v1/jobs?wait=1", jobDoc)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if !bytes.Contains(w.Body.Bytes(), []byte(ranked[1].url())) {
		t.Errorf("answer did not come from the failover peer: %s", w.Body)
	}
	st := rt.Snapshot()
	if st.Failovers != 1 {
		t.Errorf("failovers = %d, want 1", st.Failovers)
	}
	for _, ps := range st.Peers {
		if ps.URL == ranked[0].url() && ps.Failures != 1 {
			t.Errorf("failing peer recorded %d failures, want 1", ps.Failures)
		}
	}
}

func TestFailoverOnDeadPeer(t *testing.T) {
	a, b := newStubPeer(t), newStubPeer(t)
	rt := newTestRouter(t, Config{}, a, b)
	ranked := rankStubs(routerJobKey(t, rt), a, b)
	ranked[0].ts.Close() // connect refused: the crash case

	w := post(t, rt.Handler(), "/v1/jobs?wait=1", jobDoc)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if !bytes.Contains(w.Body.Bytes(), []byte(ranked[1].url())) {
		t.Errorf("answer did not come from the survivor: %s", w.Body)
	}
}

func TestHedgeWinsAgainstSlowPeer(t *testing.T) {
	a, b := newStubPeer(t), newStubPeer(t)
	rt := newTestRouter(t, Config{HedgeAfter: 30 * time.Millisecond}, a, b)
	ranked := rankStubs(routerJobKey(t, rt), a, b)
	slow, fast := ranked[0], ranked[1]
	slow.set(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(400 * time.Millisecond)
		fmt.Fprintf(w, `{"id":"k","status":"done","result":{"from":%q}}`, slow.url())
	})

	start := time.Now()
	w := post(t, rt.Handler(), "/v1/jobs?wait=1", jobDoc)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if !bytes.Contains(w.Body.Bytes(), []byte(fast.url())) {
		t.Errorf("answer did not come from the hedge: %s", w.Body)
	}
	if elapsed := time.Since(start); elapsed >= 400*time.Millisecond {
		t.Errorf("hedge did not cut the tail: %v", elapsed)
	}
	st := rt.Snapshot()
	if st.Hedges != 1 || st.HedgeWins != 1 {
		t.Errorf("hedges=%d hedge_wins=%d, want 1/1", st.Hedges, st.HedgeWins)
	}
}

func TestAllPeersShed429AggregatesMinimumRetryAfter(t *testing.T) {
	for _, c := range []struct {
		a, b, want int
	}{
		{7, 3, 3}, // the fleet minimum
		// Past what a time.Duration holds (about 292 years): must not
		// wrap into a fast retry, so the 60s cap.
		{9223372037, 9223372037, 60},
	} {
		a, b := newStubPeer(t), newStubPeer(t)
		a.shed(http.StatusTooManyRequests, c.a)
		b.shed(http.StatusTooManyRequests, c.b)
		rt := newTestRouter(t, Config{}, a, b)

		w := post(t, rt.Handler(), "/v1/jobs?wait=1", jobDoc)
		if w.Code != http.StatusTooManyRequests {
			t.Fatalf("peers %d/%d: status %d, want 429: %s", c.a, c.b, w.Code, w.Body)
		}
		if got, want := w.Header().Get("Retry-After"), fmt.Sprint(c.want); got != want {
			t.Errorf("peers %d/%d: Retry-After %q, want %s", c.a, c.b, got, want)
		}
		var er struct {
			RetryAfter int `json:"retry_after"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.RetryAfter != c.want {
			t.Errorf("peers %d/%d: body retry_after = %d (%v), want %d", c.a, c.b, er.RetryAfter, err, c.want)
		}
		if st := rt.Snapshot(); st.ShedAllPeers != 1 {
			t.Errorf("peers %d/%d: shed_all_peers = %d, want 1", c.a, c.b, st.ShedAllPeers)
		}
	}
}

func TestAllPeersShedMixed503And429Is503NeverZero(t *testing.T) {
	a, b := newStubPeer(t), newStubPeer(t)
	a.shed(http.StatusServiceUnavailable, 0) // no Retry-After header at all
	b.shed(http.StatusTooManyRequests, 0)
	rt := newTestRouter(t, Config{}, a, b)

	w := post(t, rt.Handler(), "/v1/jobs?wait=1", jobDoc)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", w.Code, w.Body)
	}
	if got := w.Header().Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After %q, want the 1s floor (never zero, never absent)", got)
	}
}

// The satellite-2 arithmetic, pinned: the forwarded Retry-After is
// the fleet minimum clamped into [1s, max].
func TestClampRetryAfter(t *testing.T) {
	cases := []struct {
		min, max, want time.Duration
	}{
		{0, 60 * time.Second, time.Second},                 // zero floors to 1s
		{-5 * time.Second, 60 * time.Second, time.Second},  // negative floors to 1s
		{500 * time.Millisecond, time.Minute, time.Second}, // sub-second floors to 1s
		{time.Second, time.Minute, time.Second},            // floor passes through
		{5 * time.Second, time.Minute, 5 * time.Second},    // in range passes through
		{2 * time.Minute, time.Minute, time.Minute},        // cap
		{5 * time.Second, 0, time.Second},                  // degenerate cap floors to 1s
	}
	for _, c := range cases {
		if got := ClampRetryAfter(c.min, c.max); got != c.want {
			t.Errorf("ClampRetryAfter(%v, %v) = %v, want %v", c.min, c.max, got, c.want)
		}
	}
}

// FuzzRetryAfter feeds a peer's raw Retry-After header through the
// router's parse and ClampRetryAfter. The forwarded interval always
// lies in [1s, cap], and a positive delay-seconds header forwards
// exactly the smaller of itself and the cap, however many digits it
// has.
func FuzzRetryAfter(f *testing.F) {
	for _, h := range []string{
		"", "0", "1", "3", "60", "61", "-5", "+7", " 7", "2.5", "abc",
		"9223372036", "9223372037", "18446744080", "99999999999999999999999",
	} {
		f.Add(h)
	}
	const limit = 60 * time.Second
	f.Fuzz(func(t *testing.T, h string) {
		got := ClampRetryAfter(parseRetryAfter(h), limit)
		if got < time.Second || got > limit {
			t.Fatalf("Retry-After %q forwards %v, outside [1s, %v]", h, got, limit)
		}
		n, ok := new(big.Int).SetString(h, 10)
		if !ok || n.Sign() <= 0 {
			return
		}
		want := limit
		if n.Cmp(big.NewInt(int64(limit/time.Second))) < 0 {
			want = time.Duration(n.Int64()) * time.Second
		}
		if got != want {
			t.Fatalf("Retry-After %q forwards %v, want %v", h, got, want)
		}
	})
}

func TestPeerDialFaultFailsOver(t *testing.T) {
	plan, err := faultinject.ParsePlan("peer.dial:err:times=1", 1)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Activate(faultinject.New(plan))
	defer faultinject.Deactivate()

	a, b := newStubPeer(t), newStubPeer(t)
	rt := newTestRouter(t, Config{}, a, b)
	w := post(t, rt.Handler(), "/v1/jobs?wait=1", jobDoc)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	st := rt.Snapshot()
	if st.Injected != 1 {
		t.Errorf("injected = %d, want 1", st.Injected)
	}
	if st.Failovers != 1 {
		t.Errorf("failovers = %d, want 1 (the refused dial must fail over)", st.Failovers)
	}
}

// A dropped response is the lost-reply case: the worker did the
// work, the router never hears it, and the failover re-derives the
// identical bytes — idempotent by content addressing.
func TestPeerRespondDroppedFailsOver(t *testing.T) {
	plan, err := faultinject.ParsePlan("peer.respond:err:times=1", 1)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Activate(faultinject.New(plan))
	defer faultinject.Deactivate()

	a, b := newStubPeer(t), newStubPeer(t)
	want := `{"id":"k","status":"done","result":{"cycles":42}}` + "\n"
	same := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, want)
	}
	a.set(same)
	b.set(same)
	rt := newTestRouter(t, Config{}, a, b)

	w := post(t, rt.Handler(), "/v1/jobs?wait=1", jobDoc)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if got := w.Body.String(); got != want {
		t.Errorf("failover after a dropped reply diverged:\ngot  %q\nwant %q", got, want)
	}
	if total := a.hits.Load() + b.hits.Load(); total != 2 {
		t.Errorf("fleet saw %d dispatches, want 2 (the dropped one plus the failover)", total)
	}
}

func TestProbeQuarantineAndRejoin(t *testing.T) {
	a, b := newStubPeer(t), newStubPeer(t)
	var bReady atomic.Bool
	bReady.Store(true)
	// Wrap b's listener behavior: /readyz health is flappable.
	b.ts.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			if !bReady.Load() {
				http.Error(w, "draining", http.StatusServiceUnavailable)
				return
			}
			io.WriteString(w, "ready\n")
			return
		}
		b.hits.Add(1)
		fmt.Fprintf(w, `{"id":"k","status":"done","result":{"from":%q}}`, b.url())
	})
	rt := newTestRouter(t, Config{ProbeInterval: 10 * time.Millisecond, DownAfter: 2}, a, b)

	healthyB := func() bool {
		for _, ps := range rt.Snapshot().Peers {
			if ps.URL == b.url() {
				return ps.Healthy
			}
		}
		t.Fatal("peer b missing from stats")
		return false
	}
	waitFor := func(want bool, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for healthyB() != want {
			if time.Now().After(deadline) {
				t.Fatalf("peer b never became %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	bReady.Store(false)
	waitFor(false, "quarantined")
	// While down, b is out of the ranking: every dispatch lands on a.
	before := a.hits.Load()
	for i := 0; i < 4; i++ {
		if w := post(t, rt.Handler(), "/v1/jobs?wait=1", jobDoc); w.Code != http.StatusOK {
			t.Fatalf("status %d with one peer down: %s", w.Code, w.Body)
		}
	}
	if a.hits.Load()-before != 4 {
		t.Errorf("survivor served %d of 4 requests", a.hits.Load()-before)
	}

	bReady.Store(true)
	waitFor(true, "healthy again")
}

func TestJobGetPollsWholeFleet(t *testing.T) {
	a, b := newStubPeer(t), newStubPeer(t)
	const key = "feedfacefeedface"
	holder := rankStubs(key, a, b)[1] // deliberately NOT the owner
	found := `{"id":"` + key + `","status":"done","cached":true,"result":{"cycles":7}}` + "\n"
	for _, p := range []*stubPeer{a, b} {
		p := p
		p.set(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if p == holder {
				io.WriteString(w, found)
				return
			}
			w.WriteHeader(http.StatusNotFound)
			io.WriteString(w, `{"error":"unknown job"}`+"\n")
		})
	}
	rt := newTestRouter(t, Config{}, a, b)

	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+key, nil)
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK || w.Body.String() != found {
		t.Errorf("fleet poll missed the holder: %d %s", w.Code, w.Body)
	}

	// Unanimous 404 is a 404.
	holder.set(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		io.WriteString(w, `{"error":"unknown job"}`+"\n")
	})
	w = httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+key, nil))
	if w.Code != http.StatusNotFound {
		t.Errorf("unanimous 404 produced %d", w.Code)
	}
}

func TestRouterRejectsDuplicateAndEmptyPeers(t *testing.T) {
	if _, err := New(Config{Peers: []string{"http://a:1", "a:1"}}); err == nil {
		t.Error("duplicate peer (respelled) accepted")
	}
	if _, err := New(Config{Peers: []string{""}}); err == nil {
		t.Error("empty peer accepted")
	}
	if _, err := New(Config{}); err == nil {
		t.Error("peerless router accepted")
	}
}
