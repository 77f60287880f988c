package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mfup/internal/faultinject"
)

// testServer spins up a Server behind httptest and tears both down.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, hs
}

// post submits a job document and decodes the envelope.
func post(t *testing.T, url, doc string) (int, http.Header, JobResponse) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var jr JobResponse
	if len(body) > 0 {
		if err := json.Unmarshal(body, &jr); err != nil {
			t.Fatalf("decoding %q: %v", body, err)
		}
	}
	return resp.StatusCode, resp.Header, jr
}

const crayLoop1 = `{"machine":{"kind":"cray"},"workload":{"loops":"1"}}`

func TestSubmitWaitComputesCachesAndReplaysBytes(t *testing.T) {
	s, hs := testServer(t, Config{Workers: 2})

	code, _, jr := post(t, hs.URL+"/v1/jobs?wait=1", crayLoop1)
	if code != http.StatusOK || jr.Status != "done" {
		t.Fatalf("first submit: %d %+v", code, jr)
	}
	if jr.Cached {
		t.Error("first run claims a cache hit")
	}
	var res JobResult
	if err := json.Unmarshal(jr.Result, &res); err != nil {
		t.Fatalf("result %s: %v", jr.Result, err)
	}
	if len(res.Loops) != 1 || !(res.HarmonicMean > 0) {
		t.Fatalf("result %+v", res)
	}

	// Second submission: a warm hit with the very same result bytes.
	code2, _, jr2 := post(t, hs.URL+"/v1/jobs?wait=1", crayLoop1)
	if code2 != http.StatusOK || !jr2.Cached {
		t.Fatalf("second submit not served from cache: %d %+v", code2, jr2)
	}
	if !bytes.Equal(jr.Result, jr2.Result) {
		t.Errorf("warm result differs:\n%s\n%s", jr.Result, jr2.Result)
	}
	// A semantically identical spelling lands on the same entry.
	code3, _, jr3 := post(t, hs.URL+"/v1/jobs?wait=1",
		`{"workload":{"loops":"1"},"machine":{"br":5,"kind":"CRAY","mem":11},"timeout_ms":60000}`)
	if code3 != http.StatusOK || !jr3.Cached || !bytes.Equal(jr.Result, jr3.Result) {
		t.Errorf("respelled spec missed the cache: %d %+v", code3, jr3)
	}
	if got := s.Snapshot().CacheHits; got != 2 {
		t.Errorf("cache hits = %d, want 2", got)
	}
}

func TestAsyncSubmitAndPoll(t *testing.T) {
	_, hs := testServer(t, Config{Workers: 1})
	code, _, jr := post(t, hs.URL+"/v1/jobs", `{"machine":{"kind":"simple"},"workload":{"loops":"2"}}`)
	if code != http.StatusAccepted || jr.ID == "" {
		t.Fatalf("async submit: %d %+v", code, jr)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(hs.URL + "/v1/jobs/" + jr.ID)
		if err != nil {
			t.Fatal(err)
		}
		var got JobResponse
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got.Status == "done" {
			if len(got.Result) == 0 {
				t.Fatalf("done with no result: %+v", got)
			}
			break
		}
		if got.Status == "failed" {
			t.Fatalf("job failed: %s", got.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %q after 10s", got.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRestartServesWarmResultsByteIdentically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")

	s1, err := New(Config{Workers: 1, CachePath: path})
	if err != nil {
		t.Fatal(err)
	}
	hs1 := httptest.NewServer(s1.Handler())
	code, _, jr := post(t, hs1.URL+"/v1/jobs?wait=1", crayLoop1)
	hs1.Close()
	if code != http.StatusOK || jr.Status != "done" {
		t.Fatalf("cold run: %d %+v", code, jr)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// A new daemon over the same journal serves the result without
	// computing, byte-identically.
	s2, hs2 := testServer(t, Config{Workers: 1, CachePath: path})
	resp, err := http.Get(hs2.URL + "/v1/jobs/" + jr.ID)
	if err != nil {
		t.Fatal(err)
	}
	var warm JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&warm); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if warm.Status != "done" || !warm.Cached {
		t.Fatalf("warm GET: %+v", warm)
	}
	if !bytes.Equal(jr.Result, warm.Result) {
		t.Errorf("restarted daemon served different bytes:\n%s\n%s", jr.Result, warm.Result)
	}
	if s2.Snapshot().Admitted != 0 {
		t.Errorf("warm serving admitted %d jobs", s2.Snapshot().Admitted)
	}
}

func TestBadSpecRejected(t *testing.T) {
	s, hs := testServer(t, Config{Workers: 1})
	for _, doc := range []string{
		`not json`,
		`{"machine":{"kind":"dataflow"}}`,
		`{"machine":{"kind":"cray"},"workload":{"loops":"99"}}`,
		`{"machine":{"kind":"ruu","bus":"xbar"}}`,                                       // the RUU takes no crossbar
		`{"machine":{"kind":"ruu","units":4,"ruu":200000000},"workload":{"loops":"1"}}`, // past the RUU size bound
	} {
		if code, _, _ := post(t, hs.URL+"/v1/jobs", doc); code != http.StatusBadRequest {
			t.Errorf("%q: status %d, want 400", doc, code)
		}
	}
	if got := s.Snapshot().BadSpec; got != 5 {
		t.Errorf("bad_spec = %d, want 5", got)
	}
	if got := s.Snapshot().Admitted; got != 0 {
		t.Errorf("admitted = %d, want 0", got)
	}
}

func TestUnknownJob404(t *testing.T) {
	_, hs := testServer(t, Config{Workers: 1})
	resp, err := http.Get(hs.URL + "/v1/jobs/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status %d, want 404", resp.StatusCode)
	}
}

// setRunJob swaps the server's job executor under its lock, the same
// lock workers read it through.
func setRunJob(s *Server, fn func(*job)) {
	s.mu.Lock()
	s.runJob = fn
	s.mu.Unlock()
}

// blockingServer stubs job execution so scheduling tests control
// exactly when work finishes.
func blockingServer(t *testing.T, cfg Config) (*Server, *httptest.Server, chan struct{}) {
	t.Helper()
	release := make(chan struct{})
	s, hs := testServer(t, cfg)
	setRunJob(s, func(j *job) {
		<-release
		s.finish(j, json.RawMessage(`{"stub":true}`), nil)
	})
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
	})
	return s, hs, release
}

func TestQueueFullSheds429WithRetryAfter(t *testing.T) {
	s, hs, release := blockingServer(t, Config{Workers: 1, QueueDepth: 1})

	// Job A occupies the worker, B the queue; C must be shed.
	docs := []string{
		`{"machine":{"kind":"cray"},"workload":{"loops":"1"}}`,
		`{"machine":{"kind":"cray"},"workload":{"loops":"2"}}`,
		`{"machine":{"kind":"cray"},"workload":{"loops":"3"}}`,
	}
	if code, _, _ := post(t, hs.URL+"/v1/jobs", docs[0]); code != http.StatusAccepted {
		t.Fatalf("job A: %d", code)
	}
	// Wait until A is actually claimed so B lands in the queue.
	waitFor(t, func() bool { return len(s.queue) == 0 })
	if code, _, _ := post(t, hs.URL+"/v1/jobs", docs[1]); code != http.StatusAccepted {
		t.Fatalf("job B: %d", code)
	}
	code, hdr, _ := post(t, hs.URL+"/v1/jobs", docs[2])
	if code != http.StatusTooManyRequests {
		t.Fatalf("job C: %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if got := s.Snapshot().ShedQueue; got != 1 {
		t.Errorf("shed_queue = %d, want 1", got)
	}
	close(release)
}

func TestRateLimitSheds429(t *testing.T) {
	clk := newFakeClock()
	s, hs := testServer(t, Config{Workers: 1, Rate: 1, Burst: 1, now: clk.now})

	if code, _, _ := post(t, hs.URL+"/v1/jobs?wait=1", crayLoop1); code != http.StatusOK {
		t.Fatal("first job refused within burst")
	}
	code, hdr, _ := post(t, hs.URL+"/v1/jobs", crayLoop1)
	if code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	clk.advance(2 * time.Second)
	if code, _, _ := post(t, hs.URL+"/v1/jobs?wait=1", crayLoop1); code != http.StatusOK {
		t.Error("replenished token refused (and the cache should make it instant)")
	}
	if s.Snapshot().ShedRate != 1 {
		t.Errorf("shed_rate = %d, want 1", s.Snapshot().ShedRate)
	}
}

func TestDedupSharesInFlightJob(t *testing.T) {
	s, hs, release := blockingServer(t, Config{Workers: 1, QueueDepth: 4})
	if code, _, _ := post(t, hs.URL+"/v1/jobs", crayLoop1); code != http.StatusAccepted {
		t.Fatal("first submit refused")
	}
	if code, _, _ := post(t, hs.URL+"/v1/jobs", crayLoop1); code != http.StatusAccepted {
		t.Fatal("duplicate submit refused")
	}
	snap := s.Snapshot()
	if snap.Admitted != 1 || snap.Deduped != 1 {
		t.Errorf("admitted %d deduped %d, want 1 and 1", snap.Admitted, snap.Deduped)
	}
	close(release)
}

func TestDrainRefusesNewWorkAndFlips(t *testing.T) {
	s, hs := testServer(t, Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz after drain: %d, want 503", resp.StatusCode)
	}
	code, hdr, _ := post(t, hs.URL+"/v1/jobs", crayLoop1)
	if code != http.StatusServiceUnavailable {
		t.Errorf("submit after drain: %d, want 503", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("drain refusal without Retry-After")
	}
	// Health stays up: draining is not dead.
	resp, err = http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz after drain: %d, want 200", resp.StatusCode)
	}
	// Drain is idempotent.
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestDrainFinishesQueuedJobs(t *testing.T) {
	s, hs := testServer(t, Config{Workers: 1, CachePath: filepath.Join(t.TempDir(), "c.jsonl")})
	code, _, jr := post(t, hs.URL+"/v1/jobs", crayLoop1)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The queued job completed and was journaled before exit.
	if _, ok := s.cache.Get(jr.ID); !ok {
		t.Error("queued job not completed by drain")
	}
	if s.cache.Saved() != 1 {
		t.Errorf("journaled %d results, want 1", s.cache.Saved())
	}
}

func TestBreakerQuarantinesPermanentFailures(t *testing.T) {
	s, hs := testServer(t, Config{Workers: 1, BreakerThreshold: 2, BreakerCooldown: time.Hour})
	// Canonicalization accepts any assembly text; the build step then
	// fails deterministically — breaker material.
	doc := `{"machine":{"kind":"cray"},"workload":{"asm":"J nowhere"}}`
	for i := 0; i < 2; i++ {
		code, _, jr := post(t, hs.URL+"/v1/jobs?wait=1", doc)
		if code != http.StatusOK || jr.Status != "failed" {
			t.Fatalf("attempt %d: %d %+v", i, code, jr)
		}
		if jr.Transient {
			t.Fatalf("assembly failure reported transient: %+v", jr)
		}
	}
	code, hdr, jr := post(t, hs.URL+"/v1/jobs", doc)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("quarantine: %d %+v, want 503", code, jr)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("quarantine refusal without Retry-After")
	}
	if s.Snapshot().Quarantined != 1 {
		t.Errorf("quarantined_keys = %d, want 1", s.Snapshot().Quarantined)
	}
	// Healthy jobs are untouched by someone else's quarantine.
	if code, _, _ := post(t, hs.URL+"/v1/jobs?wait=1", crayLoop1); code != http.StatusOK {
		t.Error("healthy job refused while another key is quarantined")
	}
}

func TestDeadlineExpiresInQueue(t *testing.T) {
	release := make(chan struct{})
	s, hs := testServer(t, Config{Workers: 1, QueueDepth: 4})
	first := true
	setRunJob(s, func(j *job) {
		if first {
			first = false
			<-release
			s.finish(j, json.RawMessage(`{"stub":true}`), nil)
			return
		}
		s.run(j)
	})

	if code, _, _ := post(t, hs.URL+"/v1/jobs", crayLoop1); code != http.StatusAccepted {
		t.Fatal("blocker refused")
	}
	waitFor(t, func() bool { return len(s.queue) == 0 })
	// 20ms budget, spent in the queue behind the blocker.
	doc := `{"machine":{"kind":"cray"},"workload":{"loops":"2"},"timeout_ms":20}`
	code, _, jr := post(t, hs.URL+"/v1/jobs", doc)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	time.Sleep(50 * time.Millisecond)
	close(release)

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(hs.URL + "/v1/jobs/" + jr.ID)
		if err != nil {
			t.Fatal(err)
		}
		var got JobResponse
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got.Status == "failed" {
			if !got.Transient || !strings.Contains(got.Error, "deadline") {
				t.Fatalf("failure %+v, want transient deadline", got)
			}
			break
		}
		if got.Status == "done" {
			t.Fatal("expired job completed")
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %q", got.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestServeAcceptFaultInjection(t *testing.T) {
	plan, err := faultinject.ParsePlan("serve.accept:err:times=1", 1)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Activate(faultinject.New(plan))
	defer faultinject.Deactivate()

	s, hs := testServer(t, Config{Workers: 1})
	code, _, _ := post(t, hs.URL+"/v1/jobs?wait=1", crayLoop1)
	if code != http.StatusInternalServerError {
		t.Fatalf("injected accept fault: %d, want 500", code)
	}
	// The fault healed (times=1): the daemon keeps serving.
	code, _, jr := post(t, hs.URL+"/v1/jobs?wait=1", crayLoop1)
	if code != http.StatusOK || jr.Status != "done" {
		t.Fatalf("post-fault submit: %d %+v", code, jr)
	}
	if s.Snapshot().Injected != 1 {
		t.Errorf("injected_faults = %d, want 1", s.Snapshot().Injected)
	}
}

func TestServeAcceptPanicContained(t *testing.T) {
	plan, err := faultinject.ParsePlan("serve.accept:panic:times=1", 1)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Activate(faultinject.New(plan))
	defer faultinject.Deactivate()

	s, hs := testServer(t, Config{Workers: 1})
	code, _, _ := post(t, hs.URL+"/v1/jobs?wait=1", crayLoop1)
	if code != http.StatusInternalServerError {
		t.Fatalf("injected panic: %d, want 500", code)
	}
	if s.Snapshot().Panics != 1 {
		t.Errorf("panics_recovered = %d, want 1", s.Snapshot().Panics)
	}
	code, _, jr := post(t, hs.URL+"/v1/jobs?wait=1", crayLoop1)
	if code != http.StatusOK || jr.Status != "done" {
		t.Fatalf("daemon wounded by contained panic: %d %+v", code, jr)
	}
}

func TestServeRespondFaultSeversBodyNotDaemon(t *testing.T) {
	plan, err := faultinject.ParsePlan("serve.respond:werr:at=1:times=1", 1)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Activate(faultinject.New(plan))
	defer faultinject.Deactivate()

	s, hs := testServer(t, Config{Workers: 1})
	resp, err := http.Post(hs.URL+"/v1/jobs?wait=1", "application/json", strings.NewReader(crayLoop1))
	if err == nil {
		// The status line may have gone out before the body died; the
		// body must be empty or truncated, never a complete document.
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var jr JobResponse
		if json.Unmarshal(body, &jr) == nil && jr.Status == "done" {
			t.Fatalf("severed response still delivered a full document: %s", body)
		}
	}
	waitFor(t, func() bool { return s.Snapshot().WriteFails == 1 })

	// The result was computed and cached despite the severed response:
	// the client's retry gets it warm and whole.
	code, _, jr := post(t, hs.URL+"/v1/jobs?wait=1", crayLoop1)
	if code != http.StatusOK || jr.Status != "done" || !jr.Cached {
		t.Fatalf("retry after severed response: %d %+v", code, jr)
	}
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, hs := testServer(t, Config{Workers: 1})
	post(t, hs.URL+"/v1/jobs?wait=1", crayLoop1)
	resp, err := http.Get(hs.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Submitted != 1 || st.Completed != 1 {
		t.Errorf("stats %+v, want submitted=1 completed=1", st)
	}
}

// TestStatsCountJobBeforeRelease submits 200 distinct jobs one at a
// time with ?wait=1 and reads /v1/stats as soon as each answer arrives:
// a job must be counted before its waiters are released, so every
// read sees completed == submitted. The window is narrow; run it under
// -race to widen it.
func TestStatsCountJobBeforeRelease(t *testing.T) {
	_, hs := testServer(t, Config{Workers: 1})
	for i := 1; i <= 200; i++ {
		doc := fmt.Sprintf(`{"machine":{"kind":"cray","mem":%d},"workload":{"loops":"1"}}`, i)
		if code, _, _ := post(t, hs.URL+"/v1/jobs?wait=1", doc); code != http.StatusOK {
			t.Fatalf("job %d: status %d", i, code)
		}
		resp, err := http.Get(hs.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		var st Stats
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Submitted != int64(i) || st.Completed != int64(i) {
			t.Fatalf("after job %d: stats %+v, want submitted = completed = %d", i, st, i)
		}
	}
}

// TestConcurrentMixedLoad drives many concurrent clients with a mixed
// healthy/overload workload; under -race this is the data-race net
// over the whole admission/execution/cache path.
func TestConcurrentMixedLoad(t *testing.T) {
	s, hs := testServer(t, Config{Workers: 2, QueueDepth: 4, Rate: 500, Burst: 10})
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			var err error
			for i := 0; i < 10; i++ {
				doc := fmt.Sprintf(`{"machine":{"kind":"cray"},"workload":{"loops":"%d"}}`, 1+(g+i)%3)
				resp, perr := http.Post(hs.URL+"/v1/jobs?wait=1", "application/json", strings.NewReader(doc))
				if perr != nil {
					err = perr
					break
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK, http.StatusAccepted, http.StatusTooManyRequests:
				default:
					err = fmt.Errorf("status %d", resp.StatusCode)
				}
			}
			done <- err
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
	snap := s.Snapshot()
	if snap.Completed == 0 {
		t.Error("no jobs completed under mixed load")
	}
}
