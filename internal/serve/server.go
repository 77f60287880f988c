package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mfup/internal/core"
	"mfup/internal/dse"
	"mfup/internal/faultinject"
	"mfup/internal/runner"
)

// Config parameterizes a Server. The zero value is usable: all cores,
// a 64-deep queue, no rate limit, a two-minute default job deadline,
// breaker at three strikes, memory-only cache.
type Config struct {
	Workers    int     // simulation workers; <= 0 means all cores
	QueueDepth int     // bounded job queue; <= 0 means 64
	Rate       float64 // admitted jobs/second; <= 0 disables rate limiting
	Burst      int     // token-bucket capacity; <= 0 means max(QueueDepth, 1)

	// DefaultTimeout is the per-job deadline when the spec does not
	// give one; MaxTimeout caps what a spec may ask for. The deadline
	// anchors at admission, so queue wait counts against it — an
	// accepted job is a promise with an expiry, not an IOU.
	DefaultTimeout time.Duration // <= 0 means 2m
	MaxTimeout     time.Duration // <= 0 means 10m

	// Retry policy for transiently failed runs, passed through to
	// runner.Options (exponential backoff, deterministic jitter).
	Retries      int
	RetryBackoff time.Duration
	RetrySeed    int64

	// Circuit breaker: after BreakerThreshold consecutive permanent
	// failures a job key is quarantined for BreakerCooldown.
	// Threshold < 0 disables the breaker; 0 means 3.
	BreakerThreshold int
	BreakerCooldown  time.Duration // <= 0 means 30s

	CachePath string // result journal; "" = memory-only

	// SweepJournalPath is the shared design-space-sweep point journal
	// (internal/dse). Points are content-addressed, so one journal
	// serves every sweep the daemon ever runs — an interrupted or
	// repeated sweep resumes from it. "" = memory-only sweeps.
	SweepJournalPath string

	Log *slog.Logger // nil discards

	now func() time.Time // test seam for admission/breaker clocks
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runner.Workers(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Burst <= 0 {
		c.Burst = c.QueueDepth
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Minute
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.Log == nil {
		c.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// jobError is a failed job's outcome.
type jobError struct {
	Msg       string
	Transient bool
}

// job is one admitted unit of work — a single simulation job, a
// whole design-space sweep when sweep is non-nil, or one sweep point
// when point is non-nil. Waiters select on done; by the time it
// closes, exactly one of result and jerr is set and neither changes
// again.
type job struct {
	id       string         // public identifier echoed to clients
	key      string         // internal cache/dedupe/breaker key
	spec     JobSpec        // canonical (single-simulation jobs)
	sweep    *dse.SweepSpec // canonical sweep, when this job is one
	point    *dse.PointSpec // canonical sweep point, when this job is one
	deadline time.Time

	state  atomic.Int32 // 0 queued, 1 running
	done   chan struct{}
	result json.RawMessage
	jerr   *jobError
}

func (j *job) status() string {
	select {
	case <-j.done:
		if j.jerr != nil {
			return "failed"
		}
		return "done"
	default:
		if j.state.Load() == 1 {
			return "running"
		}
		return "queued"
	}
}

// Server is the mfud daemon's engine: admission control in front, a
// bounded queue and worker pool in the middle, the content-addressed
// cache behind, a circuit breaker across the failure path. It is an
// http.Handler factory (Handler) plus a lifecycle (Drain); the
// command wraps it in an http.Server.
type Server struct {
	cfg     Config
	log     *slog.Logger
	cache   *Cache
	sweepJ  *dse.Journal // shared sweep point journal; nil = memory-only
	bucket  *bucket
	breaker *Breaker

	mu       sync.Mutex
	draining bool
	queue    chan *job
	active   map[string]*job // queued or running, by key

	// recent holds finished-job outcomes for polling clients, bounded
	// FIFO: completed results live in the cache forever, but failures
	// are kept only recently — an unbounded failure log would be its
	// own resource leak under sustained chaos.
	recent    map[string]*job
	recentFIF []string

	wg         sync.WaitGroup
	workCtx    context.Context
	workCancel context.CancelFunc

	// runJob executes one job; tests stub it to model slow work
	// without dragging real simulations into scheduling tests.
	runJob func(*job)

	stats counters
}

// counters is the server's observability surface, all atomics.
type counters struct {
	submitted  atomic.Int64 // POSTs that reached admission
	sweeps     atomic.Int64 // of those, design-space sweep submissions
	points     atomic.Int64 // of those, sweep-point submissions (cluster shards)
	admitted   atomic.Int64 // jobs enqueued
	shedRate   atomic.Int64 // 429: token bucket empty
	shedQueue  atomic.Int64 // 429: queue full
	shedDrain  atomic.Int64 // 503: draining
	shedBreak  atomic.Int64 // 503: quarantined
	badSpec    atomic.Int64 // 400
	cacheHits  atomic.Int64
	deduped    atomic.Int64 // attached to an identical in-flight job
	completed  atomic.Int64
	failed     atomic.Int64
	retries    atomic.Int64 // runner-level re-attempts
	injected   atomic.Int64 // serve.* faults fired
	panics     atomic.Int64 // handler panics recovered
	writeFails atomic.Int64 // response-body write failures
}

const maxRecent = 1024

// New builds a Server, opens its cache journal, and starts its
// workers. Callers own the lifecycle: Drain (or Close) must run
// before process exit for the journal to be flushed cleanly.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	cache, err := OpenCache(cfg.CachePath)
	if err != nil {
		return nil, err
	}
	var sweepJ *dse.Journal
	if cfg.SweepJournalPath != "" {
		sweepJ, err = dse.OpenJournal(cfg.SweepJournalPath)
		if err != nil {
			cache.Close()
			return nil, err
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		log:        cfg.Log,
		cache:      cache,
		sweepJ:     sweepJ,
		bucket:     newBucket(cfg.Rate, cfg.Burst, cfg.now),
		breaker:    NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.now),
		queue:      make(chan *job, cfg.QueueDepth),
		active:     make(map[string]*job),
		recent:     make(map[string]*job),
		workCtx:    ctx,
		workCancel: cancel,
	}
	s.runJob = s.run
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	s.log.Info("serving", "workers", cfg.Workers, "queue", cfg.QueueDepth,
		"cache", cfg.CachePath, "warm", cache.Loaded())
	return s, nil
}

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		j.state.Store(1)
		s.mu.Lock()
		run := s.runJob // read under the lock: tests swap in stubs
		s.mu.Unlock()
		run(j)
	}
}

// run executes one job end to end: deadline check, workload build,
// checked simulation with retries, result folding, cache append,
// breaker bookkeeping.
func (s *Server) run(j *job) {
	if s.cfg.now().After(j.deadline) {
		// The job expired in the queue. That is load shedding after
		// admission — environmental, so the breaker does not count it.
		s.finish(j, nil, &jobError{Msg: "deadline exceeded before the job ran", Transient: true})
		return
	}
	if j.sweep != nil {
		s.runSweep(j)
		return
	}
	if j.point != nil {
		s.runPoint(j)
		return
	}
	w, err := buildWork(j.spec)
	if err != nil {
		// A spec that canonicalizes but cannot build (assembly errors,
		// impossible scale) fails deterministically: breaker material.
		s.breaker.Failure(j.key, true)
		s.finish(j, nil, &jobError{Msg: err.Error()})
		return
	}
	opts := runner.Options{
		Parallel: 1, // parallelism lives in the worker pool, not inside a job
		Limits: core.Limits{
			MaxCycles:   j.spec.Limits.MaxCycles,
			StallCycles: j.spec.Limits.StallCycles,
			Deadline:    j.deadline,
		},
		Retries:      s.cfg.Retries,
		RetryBackoff: s.cfg.RetryBackoff,
		RetrySeed:    s.cfg.RetrySeed,
	}
	out, stats, errs := runner.RunCheckedStats(s.workCtx, opts, []runner.Task{w.task})
	s.stats.retries.Add(stats[0].Retries)
	if len(errs) > 0 {
		e := errs[0]
		transient := runner.Transient(e.Err)
		s.breaker.Failure(j.key, !transient)
		s.log.Warn("job failed", "key", short(j.key), "err", e.Error(), "transient", transient)
		s.finish(j, nil, &jobError{Msg: e.Error(), Transient: transient})
		return
	}
	jr, err := resultOf(j.spec, w, out[0])
	if err != nil {
		s.breaker.Failure(j.key, true)
		s.finish(j, nil, &jobError{Msg: err.Error()})
		return
	}
	raw, err := json.Marshal(jr)
	if err != nil {
		s.breaker.Failure(j.key, true)
		s.finish(j, nil, &jobError{Msg: fmt.Sprintf("marshaling result: %v", err)})
		return
	}
	s.cache.Put(j.key, raw)
	if cerr := s.cache.Err(); cerr != nil {
		// Durability degraded, availability intact: the result is in
		// memory and still served; only the journal is wounded.
		s.log.Error("cache journal write failed; results no longer durable", "err", cerr.Error())
	}
	s.breaker.Success(j.key)
	s.finish(j, raw, nil)
}

// finish publishes a job's outcome and retires it from the active set
// into the bounded recent set. It releases the job's waiters last, so a
// client that has its result finds the job counted and retired.
func (s *Server) finish(j *job, result json.RawMessage, jerr *jobError) {
	j.result, j.jerr = result, jerr
	if jerr == nil {
		s.stats.completed.Add(1)
	} else {
		s.stats.failed.Add(1)
	}
	s.mu.Lock()
	delete(s.active, j.key)
	if _, dup := s.recent[j.key]; !dup {
		s.recent[j.key] = j
		s.recentFIF = append(s.recentFIF, j.key)
		for len(s.recentFIF) > maxRecent {
			delete(s.recent, s.recentFIF[0])
			s.recentFIF = s.recentFIF[1:]
		}
	} else {
		s.recent[j.key] = j // refresh: newest outcome wins
	}
	s.mu.Unlock()
	close(j.done)
}

// Handler returns the daemon's routes behind a recovering middleware:
// a panicking handler (injected via serve.accept:panic, or a genuine
// bug) costs that request a 500, never the process.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{key}", s.handleGet)
	mux.HandleFunc("POST /v1/sweeps", s.handleSweepSubmit)
	mux.HandleFunc("GET /v1/sweeps/{key}", s.handleSweepGet)
	mux.HandleFunc("POST /v1/points", s.handlePointSubmit)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.stats.panics.Add(1)
				s.log.Error("handler panic recovered", "url", r.URL.Path, "panic", fmt.Sprint(rec))
				// Best effort: if the handler already wrote, this fails
				// silently, which is all a half-written response allows.
				s.writeError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", rec), 0)
			}
		}()
		mux.ServeHTTP(w, r)
	})
}

// handleSubmit is the admission path: fault hook, drain gate, rate
// limit, spec canonicalization, cache, breaker, queue — each layer
// refusing as early and as cheaply as it can.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	s.stats.submitted.Add(1)
	if !s.gate(w) {
		return
	}

	var spec JobSpec
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(body).Decode(&spec); err != nil {
		s.stats.badSpec.Add(1)
		s.writeError(w, http.StatusBadRequest, fmt.Sprintf("decoding job spec: %v", err), 0)
		return
	}
	c, err := Canonicalize(spec)
	if err != nil {
		s.stats.badSpec.Add(1)
		s.writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	key := Key(c)
	timeout := s.cfg.DefaultTimeout
	if c.TimeoutMS > 0 {
		timeout = time.Duration(c.TimeoutMS) * time.Millisecond
	}
	s.admit(w, r, &job{id: key, key: key, spec: c}, timeout)
}

// gate is the front half of admission — the serve.accept fault hook,
// the drain check, and the token bucket — shared by every job class.
// It reports whether the request may proceed; refusals are already
// written.
func (s *Server) gate(w http.ResponseWriter) bool {
	// Deterministic chaos first, so injected faults exercise the full
	// response path exactly as a real defect here would.
	if kind, at, transient, armed := faultinject.Active().SiteFault("serve.accept"); armed {
		s.stats.injected.Add(1)
		switch kind {
		case faultinject.KindPanic:
			panic(&faultinject.Error{Site: "serve.accept"})
		case faultinject.KindStall:
			time.Sleep(time.Duration(at) * time.Millisecond)
		default: // KindError
			err := &faultinject.Error{Site: "serve.accept", Transient: transient}
			s.writeError(w, http.StatusInternalServerError, err.Error(), 0)
			return false
		}
	}

	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		s.stats.shedDrain.Add(1)
		s.writeError(w, http.StatusServiceUnavailable, "draining", time.Second)
		return false
	}
	if ok, retry := s.bucket.take(); !ok {
		s.stats.shedRate.Add(1)
		s.writeError(w, http.StatusTooManyRequests, "rate limit exceeded", retry)
		return false
	}
	return true
}

// admit is the back half of admission, shared by every job class:
// cache, breaker, drain re-check, queue, and the optional ?wait=1
// block. proto carries the job's identity and payload; admit caps the
// timeout and stamps the deadline.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, proto *job, timeout time.Duration) {
	if raw, ok := s.cache.Get(proto.key); ok {
		s.stats.cacheHits.Add(1)
		s.writeJSON(w, http.StatusOK, JobResponse{ID: proto.id, Status: "done", Cached: true, Result: raw})
		return
	}
	if ok, retry := s.breaker.Allow(proto.key); !ok {
		s.stats.shedBreak.Add(1)
		s.writeError(w, http.StatusServiceUnavailable,
			"job quarantined after repeated permanent failures", retry)
		return
	}

	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		// A half-open probe slot claimed above must not die with this
		// refusal: no job will run, so give the slot back.
		s.breaker.Release(proto.key)
		s.stats.shedDrain.Add(1)
		s.writeError(w, http.StatusServiceUnavailable, "draining", time.Second)
		return
	}
	j, exists := s.active[proto.key]
	if exists {
		s.mu.Unlock()
		s.stats.deduped.Add(1)
	} else {
		j = proto
		j.deadline = s.cfg.now().Add(timeout)
		j.done = make(chan struct{})
		select {
		case s.queue <- j:
			s.active[j.key] = j
			s.mu.Unlock()
			s.stats.admitted.Add(1)
		default:
			s.mu.Unlock()
			s.breaker.Release(j.key)
			s.stats.shedQueue.Add(1)
			s.writeError(w, http.StatusTooManyRequests, "job queue full", time.Second)
			return
		}
	}

	if wait, _ := strconv.ParseBool(r.URL.Query().Get("wait")); wait {
		select {
		case <-j.done:
			s.writeFinished(w, j, false)
		case <-r.Context().Done():
			// The client hung up; the job keeps running — its result
			// lands in the cache for the retry this client will make.
		}
		return
	}
	s.writeJSON(w, http.StatusAccepted, JobResponse{ID: j.id, Status: j.status()})
}

// handleGet serves job status and results by key: active jobs from
// the scheduler, completed ones from the cache (which survives
// restarts), failures from the bounded recent set.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	s.serveByKey(w, key, key)
}

// serveByKey answers a status query for any job class: id is the
// public identifier echoed back, key the internal cache/dedupe key.
func (s *Server) serveByKey(w http.ResponseWriter, id, key string) {
	s.mu.Lock()
	j, ok := s.active[key]
	if !ok {
		j, ok = s.recent[key]
	}
	s.mu.Unlock()
	if raw, hit := s.cache.Get(key); hit {
		s.stats.cacheHits.Add(1)
		s.writeJSON(w, http.StatusOK, JobResponse{ID: id, Status: "done", Cached: true, Result: raw})
		return
	}
	if !ok {
		s.writeError(w, http.StatusNotFound, "unknown job", 0)
		return
	}
	select {
	case <-j.done:
		s.writeFinished(w, j, false)
	default:
		s.writeJSON(w, http.StatusOK, JobResponse{ID: j.id, Status: j.status()})
	}
}

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	io.WriteString(w, "ready\n")
}

// Stats is the /v1/stats document.
type Stats struct {
	Submitted   int64 `json:"submitted"`
	Sweeps      int64 `json:"sweeps_submitted"`
	Points      int64 `json:"points_submitted"`
	Admitted    int64 `json:"admitted"`
	Deduped     int64 `json:"deduped"`
	CacheHits   int64 `json:"cache_hits"`
	Completed   int64 `json:"completed"`
	Failed      int64 `json:"failed"`
	Retries     int64 `json:"retries"`
	ShedRate    int64 `json:"shed_rate"`
	ShedQueue   int64 `json:"shed_queue"`
	ShedDrain   int64 `json:"shed_draining"`
	ShedBreaker int64 `json:"shed_quarantined"`
	BadSpec     int64 `json:"bad_spec"`
	Injected    int64 `json:"injected_faults"`
	Panics      int64 `json:"panics_recovered"`
	WriteFails  int64 `json:"response_write_failures"`
	QueueDepth  int   `json:"queue_depth"`
	Quarantined int   `json:"quarantined_keys"`
	CacheLoaded int   `json:"cache_loaded"`
	CacheSaved  int   `json:"cache_saved"`
}

// Snapshot reads the counters; exported for the load generator's
// final report as well as /v1/stats.
func (s *Server) Snapshot() Stats {
	return Stats{
		Submitted:   s.stats.submitted.Load(),
		Sweeps:      s.stats.sweeps.Load(),
		Points:      s.stats.points.Load(),
		Admitted:    s.stats.admitted.Load(),
		Deduped:     s.stats.deduped.Load(),
		CacheHits:   s.stats.cacheHits.Load(),
		Completed:   s.stats.completed.Load(),
		Failed:      s.stats.failed.Load(),
		Retries:     s.stats.retries.Load(),
		ShedRate:    s.stats.shedRate.Load(),
		ShedQueue:   s.stats.shedQueue.Load(),
		ShedDrain:   s.stats.shedDrain.Load(),
		ShedBreaker: s.stats.shedBreak.Load(),
		BadSpec:     s.stats.badSpec.Load(),
		Injected:    s.stats.injected.Load(),
		Panics:      s.stats.panics.Load(),
		WriteFails:  s.stats.writeFails.Load(),
		QueueDepth:  len(s.queue),
		Quarantined: s.breaker.Quarantined(),
		CacheLoaded: s.cache.Loaded(),
		CacheSaved:  s.cache.Saved(),
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.Snapshot())
}

// Drain is the graceful shutdown: stop admitting (submissions get 503,
// /readyz flips), let queued and running jobs finish, then flush and
// close the journal. If ctx expires first, running jobs are cancelled
// (they fail with skip/cancel errors; nothing corrupts) and the
// journal still flushes whatever completed. Safe to call once.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	close(s.queue) // admission checks draining under the same lock, so no send can race this
	s.mu.Unlock()
	s.log.Info("draining", "queued", len(s.queue))

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		s.log.Warn("drain deadline reached; cancelling in-flight jobs")
		s.workCancel()
		<-done
	}
	s.workCancel()
	err := s.cache.Close()
	if s.sweepJ != nil {
		if jerr := s.sweepJ.Close(); jerr != nil && err == nil {
			err = jerr
		}
	}
	s.log.Info("drained", "completed", s.stats.completed.Load(),
		"failed", s.stats.failed.Load(), "journaled", s.cache.Saved())
	return err
}

// JobResponse is the wire envelope of every job-related reply, from a
// worker or a router. Result carries the cached bytes verbatim: two
// servings of the same key are byte-identical in this field by
// construction.
type JobResponse struct {
	ID        string          `json:"id"`
	Status    string          `json:"status"`
	Cached    bool            `json:"cached,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
	Error     string          `json:"error,omitempty"`
	Transient bool            `json:"transient,omitempty"`
}

func (s *Server) writeFinished(w http.ResponseWriter, j *job, cached bool) {
	if j.jerr != nil {
		s.writeJSON(w, http.StatusOK, JobResponse{
			ID: j.id, Status: "failed", Error: j.jerr.Msg, Transient: j.jerr.Transient,
		})
		return
	}
	s.writeJSON(w, http.StatusOK, JobResponse{ID: j.id, Status: "done", Cached: cached, Result: j.result})
}

// ErrorResponse is the wire envelope of a refusal, from a worker or a
// router.
type ErrorResponse struct {
	Error      string `json:"error"`
	RetryAfter int    `json:"retry_after,omitempty"` // seconds, mirrors the header
}

// writeError sends a structured refusal; retry > 0 adds Retry-After,
// the contract that lets a shed client back off instead of hammering.
func (s *Server) writeError(w http.ResponseWriter, status int, msg string, retry time.Duration) {
	resp := ErrorResponse{Error: msg}
	if retry > 0 {
		resp.RetryAfter = RetryAfterSeconds(retry)
		w.Header().Set("Retry-After", strconv.Itoa(resp.RetryAfter))
	}
	s.writeJSON(w, status, resp)
}

// writeJSON marshals v and writes it through the serve.respond fault
// site, so the chaos harness can sever response bodies mid-write
// (werr) or truncate them (short) exactly as a dying connection
// would. A failed body write is logged and counted; the job outcome
// itself is unaffected — it is in the cache, and the client's retry
// hits it warm.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, "encoding response", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	out := faultinject.WrapWriter("serve.respond", w)
	if _, err := out.Write(append(b, '\n')); err != nil {
		s.stats.writeFails.Add(1)
		s.log.Warn("response write failed", "err", err.Error())
	}
}

// short abbreviates a content key for log lines.
func short(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}
