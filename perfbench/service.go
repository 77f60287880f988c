package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mfup/internal/cluster"
	"mfup/internal/core"
	"mfup/internal/dse"
	"mfup/internal/loops"
	"mfup/internal/machdef"
	"mfup/internal/queuemodel"
	"mfup/internal/serve"
	"mfup/internal/stats"
)

// The service workload's shape. The offered rate sits below the
// fleet's knee on a 2-core host, so the measured phase reads latency,
// not collapse; max_rate_rps steps above it.
const (
	serviceRate    = 60.0                   // offered requests/s of the measured phase
	latencyLimit   = 100 * time.Millisecond // tail limit max_rate_rps is judged against
	fleetWorkers   = 2                      // serve.Server workers behind the router
	setupFleets    = 9                      // set-ups per untraced run; setup_s is their median
	warmSetSize    = 32                     // distinct warm keys the hits respell
	checkJobs      = 12                     // cold results re-derived in process per run
	checkSweeps    = 3                      // routed sweeps re-run in process per run
	requestTimeout = 30 * time.Second
	spanHeader     = "X-Perfbench-Span" // the client span id, read by the router's wrapper
)

// rateSteps are the multiples of serviceRate max_rate_rps steps
// through after the measured phase.
var rateSteps = []float64{2, 4, 8, 16, 24, 32, 48}

// fleet is the service under test: a cluster.Router in front of
// fleetWorkers serve.Server workers, each with one simulation worker
// and its journals on files, all on loopback listeners.
type fleet struct {
	workers []*serve.Server
	router  *cluster.Router
	servers []*http.Server
	client  *http.Client // the router's connections to the workers
	wg      sync.WaitGroup
	url     string
}

func startFleet(dir string, hl *handlerLog) (*fleet, error) {
	f := &fleet{client: &http.Client{Transport: &http.Transport{}}}
	var peers []string
	for i := 0; i < fleetWorkers; i++ {
		s, err := serve.New(serve.Config{
			Workers:          1,
			CachePath:        filepath.Join(dir, fmt.Sprintf("worker%d.cache.jsonl", i)),
			SweepJournalPath: filepath.Join(dir, fmt.Sprintf("worker%d.points.jsonl", i)),
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.workers = append(f.workers, s)
		url, err := f.listen(hl.wrap("Server.Handler", s.Handler()))
		if err != nil {
			f.close()
			return nil, err
		}
		peers = append(peers, url)
	}
	rt, err := cluster.New(cluster.Config{Peers: peers, Client: f.client})
	if err != nil {
		f.close()
		return nil, err
	}
	f.router = rt
	if f.url, err = f.listen(hl.wrap("Router.Handler", rt.Handler())); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *fleet) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	f.servers = append(f.servers, srv)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		srv.Serve(ln) // returns ErrServerClosed once close shuts it down
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops the fleet and waits for everything it started: the
// listeners (router first), the router's prober, then each worker's
// drain, which flushes its journals.
func (f *fleet) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var errs []error
	for i := len(f.servers) - 1; i >= 0; i-- {
		errs = append(errs, f.servers[i].Shutdown(ctx))
	}
	f.wg.Wait()
	if f.router != nil {
		f.router.Close()
	}
	for _, s := range f.workers {
		errs = append(errs, s.Drain(ctx))
	}
	f.client.CloseIdleConnections()
	return errors.Join(errs...)
}

// envelope is the job and sweep response document.
type envelope struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
	Error  string          `json:"error"`
}

// handlerLog times the wrapped Server.Handler and Router.Handler calls
// of a traced phase and classifies each by what it served.
type handlerLog struct {
	tr   *Tracer
	on   atomic.Bool
	mu   sync.Mutex
	recs []handlerRec
}

type handlerRec struct {
	layer, class, id string
	dur              time.Duration
}

// wrap times h while the log is on; a nil log leaves h bare.
func (l *handlerLog) wrap(layer string, h http.Handler) http.Handler {
	if l == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !l.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		cw := &captureWriter{ResponseWriter: w}
		sp := l.tr.Start(layer, parent, 0)
		h.ServeHTTP(cw, r)
		d := sp.End()
		var env envelope
		json.Unmarshal(cw.body.Bytes(), &env) // a refusal leaves env empty; class falls to cold
		class := "cold"
		switch {
		case strings.HasPrefix(r.URL.Path, "/v1/points"):
			class = "point"
		case strings.HasPrefix(r.URL.Path, "/v1/sweeps"):
			class = "sweep"
		case env.Cached:
			class = "hit"
		}
		l.mu.Lock()
		l.recs = append(l.recs, handlerRec{layer, class, env.ID, d})
		l.mu.Unlock()
	})
}

// captureWriter keeps a copy of the response body.
type captureWriter struct {
	http.ResponseWriter
	body bytes.Buffer
}

func (c *captureWriter) Write(b []byte) (int, error) {
	c.body.Write(b)
	return c.ResponseWriter.Write(b)
}

// durations returns the handler times of one layer and class, and the
// same keyed by the content key answered.
func (l *handlerLog) durations(layer, class string) (samples, map[string]time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var all samples
	byID := map[string]time.Duration{}
	for _, r := range l.recs {
		if r.layer == layer && r.class == class {
			all = append(all, r.dur)
			byID[r.id] = r.dur
		}
	}
	return all, byID
}

// service drives one run of the service workload.
type service struct {
	cfg     *config
	gen     *generator
	fleet   *fleet
	client  *http.Client
	hl      *handlerLog // nil in untraced runs
	tr      *Tracer     // nil outside a traced phase
	out     *outcome
	results map[string][]byte // content key -> the result bytes first served
}

// phase is one open-loop phase's readings.
type phase struct {
	lat, late    samples
	byKind       [3]samples // lat by request kind: hit, cold, sweep
	failed, done int
	backlog      int
	wall         time.Duration // phase start to last response
}

func (p phase) tail() time.Duration {
	t, _ := p.lat.tail()
	return t
}

// keptUp reports whether a phase offered at rate met the latency limit
// with no failures and without a growing backlog: no more requests
// outstanding at the last release than the limit lets the rate queue.
func (p phase) keptUp(rate float64, conns int) bool {
	maxBacklog := int(rate*latencyLimit.Seconds()) + conns
	return p.failed == 0 && p.tail() <= latencyLimit && p.backlog <= maxBacklog
}

// runService measures the open-loop request mix against a fresh fleet.
func runService(cfg *config) (*outcome, error) {
	for _, k := range append(loops.All(), loops.VectorKernels()...) {
		k.SharedTrace().Prepared() // decoded long before a daemon's first request
	}
	gen, err := newGenerator(cfg.seed, warmSetSize)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.outDir, "service-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	sv := &service{
		cfg: cfg, gen: gen, out: &outcome{layers: newLayers()},
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     cfg.workers,
			MaxIdleConnsPerHost: cfg.workers,
		}},
		results: map[string][]byte{},
	}
	defer sv.client.CloseIdleConnections()
	if cfg.trace {
		sv.hl = &handlerLog{tr: cfg.tr}
	}
	defer func() {
		if sv.fleet != nil {
			sv.fleet.close()
		}
	}()

	reps := setupFleets
	if cfg.trace {
		reps = 1
	}
	var setup samples
	for i := 0; i < reps; i++ {
		if sv.fleet != nil {
			err := sv.fleet.close()
			sv.fleet = nil
			if err != nil {
				return nil, err
			}
		}
		d, err := sv.setup(filepath.Join(dir, fmt.Sprintf("fleet%d", i)))
		if err != nil {
			return nil, err
		}
		setup = append(setup, d)
	}

	out := sv.out
	var reqs []request
	var ph phase
	var peak float64
	runtime.GC() // start the measured phase from the set-up's live heap
	if !cfg.trace {
		reqs = gen.schedule(serviceRate, cfg.seconds)
		rss := startRSS()
		stop := rss.every(time.Second)
		ph = sv.run(reqs, true)
		peak = medianFloat(stop())
		rss.close()
		maxRate := 0.0
		if ph.keptUp(serviceRate, cfg.workers) {
			maxRate = sv.stepUp()
		}
		if _, err := sv.rederive(reqs); err != nil {
			return nil, err
		}
		out.note("max_rate_rps", maxRate, "1/s")
	} else {
		plain := sv.run(gen.schedule(serviceRate, cfg.seconds*2/5), true)
		reqs = gen.schedule(serviceRate, cfg.seconds*2/5)
		sv.hl.on.Store(true)
		sv.tr = cfg.tr
		ph = sv.run(reqs, true)
		sv.tr = nil
		sv.hl.on.Store(false)
		out.layers["bench.trace_overhead_ms"] = ms(ph.lat.median() - plain.lat.median())
		if err := sv.layers(reqs, ph); err != nil {
			return nil, err
		}
	}
	out.e2e = e2eMetrics(setup.median(), ph.lat.median(), ph.tail(), ph.byKind[hitReq].median(), peak)
	_, pct := ph.lat.tail()
	out.note("p50_ms", ms(ph.lat.median()), "ms")
	out.note("p99_ms", ms(ph.lat.percentile(99)), "ms")
	out.note("tail_pct", pct, "%")
	out.note("requests", float64(len(ph.lat)), "count")
	for k, name := range []string{"hit", "cold", "sweep"} {
		tail, _ := ph.byKind[k].tail()
		out.note(name+"_p50_ms", ms(ph.byKind[k].median()), "ms")
		out.note(name+"_tail_ms", ms(tail), "ms")
		out.note(name+"_requests", float64(len(ph.byKind[k])), "count")
	}
	out.note("late_p50_ms", ms(ph.late.median()), "ms")
	out.note("late_p99_ms", ms(ph.late.percentile(99)), "ms")
	out.note("backlog", float64(ph.backlog), "count")

	err = sv.fleet.close()
	sv.fleet = nil
	return out, err
}

// setup starts a fresh fleet on journals under dir and computes the
// warm key set through the router, all due at once over the run's
// connections, returning the time both took.
func (sv *service) setup(dir string) (time.Duration, error) {
	t0 := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	f, err := startFleet(dir, sv.hl)
	if err != nil {
		return 0, err
	}
	sv.fleet = f
	reqs := make([]request, len(sv.gen.warm))
	for i, c := range sv.gen.warm {
		body, err := json.Marshal(c)
		if err != nil {
			return 0, err
		}
		reqs[i] = request{path: "/v1/jobs?wait=1", body: body, key: serve.Key(c)}
	}
	res, _ := sv.send(reqs)
	for i, x := range res {
		if x.err != "" {
			return 0, fmt.Errorf("warming %.16s: %s", reqs[i].key, x.err)
		}
		sv.compare(reqs[i].key, x.result, "a fleet set up earlier")
	}
	return time.Since(t0), nil
}

// run sends one phase and checks it. Every response for a content key
// must carry the bytes first served for it. A counted phase adds its
// requests to attempted and its failures to failed; a rate step only
// reports them, because shedding past the knee is the fleet working
// as designed (a byte mismatch still fails the run).
func (sv *service) run(reqs []request, counted bool) phase {
	res, backlog := sv.send(reqs)
	p := phase{backlog: backlog}
	for i, r := range reqs {
		x := res[i]
		p.wall = max(p.wall, r.due+x.lat)
		p.late = append(p.late, x.late)
		if counted {
			sv.out.attempted++
		}
		if x.err != "" {
			p.failed++
			p.lat = append(p.lat, requestTimeout) // a failure misses any latency limit
			if counted {
				sv.out.fail("%s: %s", r.path, x.err)
			}
			continue
		}
		p.done++
		sv.compare(r.key, x.result, "an earlier response")
		p.lat = append(p.lat, x.lat)
		p.byKind[r.kind] = append(p.byKind[r.kind], x.lat)
	}
	return p
}

// compare records the first bytes served for key and fails the run on
// any later difference.
func (sv *service) compare(key string, b []byte, what string) {
	prev, seen := sv.results[key]
	if !seen {
		sv.results[key] = b
		return
	}
	if !bytes.Equal(prev, b) {
		sv.out.fail("key %.16s: bytes differ from %s", key, what)
	}
}

// stepUp offers rising rates after the measured phase, notes each
// step's latency, and returns the highest rate that kept up
// (serviceRate when none above it did). Each step lasts a twentieth of
// the run's seconds, within [0.5 s, 1 s].
func (sv *service) stepUp() float64 {
	best := serviceRate
	step := min(max(sv.cfg.seconds/20, 500*time.Millisecond), time.Second)
	for _, m := range rateSteps {
		rate := serviceRate * m
		p := sv.run(sv.gen.schedule(rate, step), false)
		name := fmt.Sprintf("at_%g_rps", rate)
		sv.out.note(name+"_p50_ms", ms(p.lat.median()), "ms")
		sv.out.note(name+"_tail_ms", ms(p.tail()), "ms")
		if !p.keptUp(rate, sv.cfg.workers) {
			break
		}
		best = rate
	}
	return best
}

// response is one request's outcome as the client saw it.
type response struct {
	lat, late time.Duration
	result    []byte
	err       string
}

// send runs a schedule open-loop: the dispatcher releases each request
// at its due time (a coarse sleep, then a short spin, because sleeps
// overshoot by up to a millisecond) and one sender per connection
// carries it. Latency runs from the due time to the last response
// byte, so a stall delays every request queued behind it. backlog is
// how many released requests were unanswered when the last one was
// released.
func (sv *service) send(reqs []request) (res []response, backlog int) {
	res = make([]response, len(reqs))
	late := make([]time.Duration, len(reqs))
	queue := make(chan int, len(reqs))
	var done atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < sv.cfg.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				res[i] = sv.do(reqs[i], start.Add(reqs[i].due), int64(i+1))
				done.Add(1)
			}
		}()
	}
	for i := range reqs {
		due := start.Add(reqs[i].due)
		waitUntil(due)
		late[i] = time.Since(due)
		queue <- i
	}
	backlog = len(reqs) - int(done.Load())
	close(queue)
	wg.Wait()
	for i := range res {
		res[i].late = late[i]
	}
	return res, backlog
}

// spinWindow is how long before a due time the dispatcher stops
// sleeping and spins.
const spinWindow = 1500 * time.Microsecond

func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// do sends one request and checks its envelope.
func (sv *service) do(r request, due time.Time, op int64) response {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	sp := sv.tr.Start("client.request", 0, op)
	defer sp.End()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, sv.fleet.url+r.path, bytes.NewReader(r.body))
	if err != nil {
		return response{lat: time.Since(due), err: err.Error()}
	}
	req.Header.Set("Content-Type", "application/json")
	if sp.id != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(sp.id, 10))
	}
	resp, err := sv.client.Do(req)
	if err != nil {
		return response{lat: time.Since(due), err: err.Error()}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(due)
	if err != nil {
		return response{lat: lat, err: err.Error()}
	}
	var env envelope
	switch err := json.Unmarshal(body, &env); {
	case resp.StatusCode != http.StatusOK:
		return response{lat: lat, err: fmt.Sprintf("HTTP %d: %.120s", resp.StatusCode, body)}
	case err != nil:
		return response{lat: lat, err: fmt.Sprintf("bad envelope: %v", err)}
	case env.Status != "done":
		return response{lat: lat, err: fmt.Sprintf("status %q: %s", env.Status, env.Error)}
	case env.ID != r.key:
		return response{lat: lat, err: fmt.Sprintf("answered %.16s for %.16s", env.ID, r.key)}
	}
	return response{lat: lat, result: env.Result}
}

// rederive re-runs a seeded sample of the phase's cold jobs and routed
// sweeps in process and compares their bytes with what the fleet
// served. It returns each sample's in-process run time by key.
func (sv *service) rederive(reqs []request) (map[string]time.Duration, error) {
	var jobs, sweeps []request
	for _, r := range reqs {
		if _, ok := sv.results[r.key]; !ok {
			continue // failed, and already counted
		}
		switch r.kind {
		case coldReq:
			jobs = append(jobs, r)
		case sweepReq:
			sweeps = append(sweeps, r)
		}
	}
	rng := rand.New(rand.NewSource(sv.cfg.seed))
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	rng.Shuffle(len(sweeps), func(i, j int) { sweeps[i], sweeps[j] = sweeps[j], sweeps[i] })
	took := map[string]time.Duration{}
	for _, r := range jobs[:min(checkJobs, len(jobs))] {
		b, d, err := simulateJob(*r.job)
		if err != nil {
			return nil, err
		}
		took[r.key] = d
		sv.compare(r.key, b, "an in-process run")
	}
	for _, r := range sweeps[:min(checkSweeps, len(sweeps))] {
		t0 := time.Now()
		rep, err := dse.Run(context.Background(), *r.sweep, dse.Options{Parallel: sv.cfg.workers})
		d := time.Since(t0)
		if err != nil {
			return nil, err
		}
		b, err := rep.JSON()
		if err != nil {
			return nil, err
		}
		// The fleet serves the report inside its JSON envelope, which
		// re-encodes it compact; encode the local report the same way.
		if b, err = json.Marshal(json.RawMessage(b)); err != nil {
			return nil, err
		}
		took[r.key] = d
		sv.compare(r.key, b, "an in-process run")
	}
	return took, nil
}

// jobParts resolves a canonical job into its machine definition and
// its kernels, with their traces materialized.
func jobParts(c serve.JobSpec) (machdef.Spec, []*loops.Kernel, error) {
	spec, err := machdef.Canonicalize(machdef.Spec{
		Kind: c.Machine.Kind, Mem: c.Machine.Mem, Br: c.Machine.Br,
		Width: c.Machine.Units, Bus: c.Machine.Bus, RUU: c.Machine.RUU, Stations: c.Machine.Stations,
	})
	if err != nil {
		return spec, nil, err
	}
	var ks []*loops.Kernel
	for _, f := range strings.Split(c.Workload.Loops, ",") {
		n, err := strconv.Atoi(f)
		if err != nil {
			return spec, nil, err
		}
		var k *loops.Kernel
		switch {
		case c.Machine.Kind == "vector":
			k, err = loops.VectorKernel(n)
		case c.Scale > 0:
			k, _, err = loops.ForScale(n, c.Scale)
		default:
			k, err = loops.Get(n)
		}
		if err != nil {
			return spec, nil, err
		}
		k.SharedTrace()
		ks = append(ks, k)
	}
	return spec, ks, nil
}

// simulateJob derives a cold job's result document in process the way
// a worker does: the machine from its definition (under the
// extrapolator when the job asks), one checked run per kernel, folded
// into serve.JobResult. The duration covers the runs only.
func simulateJob(c serve.JobSpec) ([]byte, time.Duration, error) {
	spec, ks, err := jobParts(c)
	if err != nil {
		return nil, 0, err
	}
	cfg, err := spec.Config()
	if err != nil {
		return nil, 0, err
	}
	m, err := spec.New()
	if err != nil {
		return nil, 0, err
	}
	if c.Extrapolate {
		m = core.Extrapolate(m)
	}
	jr := serve.JobResult{Config: cfg.Name()}
	rates := make([]float64, 0, len(ks))
	t0 := time.Now()
	for _, k := range ks {
		r, err := m.RunChecked(k.SharedTrace(), core.Limits{})
		if err != nil {
			return nil, 0, err
		}
		jr.Machine = r.Machine
		jr.Loops = append(jr.Loops, serve.LoopResult{
			Trace: k.String(), Instructions: r.Instructions, Cycles: r.Cycles, Rate: r.IssueRate(),
		})
		rates = append(rates, r.IssueRate())
	}
	d := time.Since(t0)
	jr.HarmonicMean = stats.HarmonicMean(rates)
	b, err := json.Marshal(&jr)
	return b, d, err
}

// layers fills the per-layer metrics of a traced service run from the
// wrapped handlers, the fleet's counters, the load generator, and
// replays of the traced phase's requests.
func (sv *service) layers(reqs []request, ph phase) error {
	vals, tr, hl := sv.out.layers, sv.cfg.tr, sv.hl
	var op int64
	workerHits, _ := hl.durations("Server.Handler", "hit")
	routerHits, _ := hl.durations("Router.Handler", "hit")
	colds, coldByID := hl.durations("Server.Handler", "cold")
	points, _ := hl.durations("Server.Handler", "point")
	_, sweepByID := hl.durations("Router.Handler", "sweep")
	vals["serve.hit_ms"] = ms(workerHits.median())
	vals["serve.cold_ms"] = ms(colds.median())
	vals["serve.point_ms"] = ms(points.median())
	// Requests cannot be paired across the hop (the router forwards no
	// headers), so the hop is the difference of the hit medians.
	vals["cluster.hop_ms"] = ms(routerHits.median() - workerHits.median())

	took, err := sv.rederive(reqs)
	if err != nil {
		return err
	}
	var waits samples
	var ratios []float64
	for key, d := range took {
		if h, ok := coldByID[key]; ok {
			waits = append(waits, h-d)
		}
		if h, ok := sweepByID[key]; ok && d > 0 {
			ratios = append(ratios, float64(h)/float64(d))
		}
	}
	vals["serve.cold_wait_ms"] = ms(waits.median())
	vals["cluster.sweep_overhead_ratio"] = medianFloat(ratios)

	// Request decoding and keying, replayed on the phase's job bodies.
	var canon time.Duration
	var jobsSeen int
	for _, r := range reqs {
		if r.kind == sweepReq {
			continue
		}
		sp := tr.Start("serve.Canonicalize", 0, op)
		var spec serve.JobSpec
		if err := json.Unmarshal(r.body, &spec); err == nil {
			if c, err := serve.Canonicalize(spec); err == nil {
				serve.Key(c)
			}
		}
		canon += sp.End()
		jobsSeen++
	}
	if jobsSeen > 0 {
		vals["serve.canon_key_us"] = us(canon) / float64(jobsSeen)
	}

	// Result journal appends, replayed into a scratch cache.
	dir, err := os.MkdirTemp(sv.cfg.outDir, "cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cache, err := serve.OpenCache(filepath.Join(dir, "cache.jsonl"))
	if err != nil {
		return err
	}
	var put time.Duration
	var puts int
	for _, r := range reqs {
		if b, ok := sv.results[r.key]; ok && r.kind == coldReq {
			sp := tr.Start("Cache.Put", 0, op)
			cache.Put(r.key, b)
			put += sp.End()
			puts++
		}
	}
	if err := cache.Close(); err != nil {
		return err
	}
	if puts > 0 {
		vals["serve.cache_put_us"] = us(put) / float64(puts)
	}

	var st serve.Stats
	for _, w := range sv.fleet.workers {
		s := w.Snapshot()
		st.Submitted += s.Submitted
		st.CacheHits += s.CacheHits
		st.Admitted += s.Admitted
		st.Deduped += s.Deduped
		st.ShedRate += s.ShedRate + s.ShedQueue + s.ShedDrain + s.ShedBreaker
		st.Failed += s.Failed
		st.CacheSaved += s.CacheSaved
	}
	if st.Submitted > 0 {
		vals["serve.hit_ratio"] = float64(st.CacheHits) / float64(st.Submitted)
	}
	vals["serve.admitted"] = float64(st.Admitted)
	vals["serve.deduped"] = float64(st.Deduped)
	vals["serve.shed"] = float64(st.ShedRate)
	vals["serve.failed"] = float64(st.Failed)
	vals["serve.cache_saved"] = float64(st.CacheSaved)
	rs := sv.fleet.router.Snapshot()
	vals["cluster.forwarded"] = float64(rs.Forwarded)
	vals["cluster.hedges"] = float64(rs.Hedges)
	vals["cluster.hedge_wins"] = float64(rs.HedgeWins)
	vals["cluster.failovers"] = float64(rs.Failovers)
	vals["dse.simulated_points"] = float64(rs.PointsDone)

	vals["load.late_p50_ms"] = ms(ph.late.median())
	vals["load.late_p99_ms"] = ms(ph.late.percentile(99))
	if ph.wall > 0 {
		vals["load.achieved_rps"] = float64(ph.done) / ph.wall.Seconds()
	}
	vals["load.backlog"] = float64(ph.backlog)

	// The layers a cold job reaches inside a worker, replayed directly:
	// paper-length jobs on their bare machines, scaled jobs through
	// their kernel builds and the extrapolator.
	var paper, scaled []machineJob
	var bt buildTally
	for _, r := range reqs {
		if r.kind != coldReq {
			continue
		}
		spec, ks, err := jobParts(*r.job)
		if err != nil {
			return err
		}
		j := machineJob{spec: spec}
		var numbers []int
		for _, k := range ks {
			j.traces = append(j.traces, k.SharedTrace())
			numbers = append(numbers, k.Number)
		}
		if r.job.Scale == 0 {
			paper = append(paper, j)
			continue
		}
		scaled = append(scaled, j)
		if err := replayBuilds(tr, op, numbers, r.job.Scale, true, &bt); err != nil {
			return err
		}
	}
	bt.report(len(scaled), vals)
	if err := replayMachines(tr, op, paper, 1, vals); err != nil {
		return err
	}
	if _, err := replayExtrap(tr, op, scaled, nil, false, vals); err != nil {
		return err
	}
	for _, j := range scaled {
		vals["extrap.runs"] += float64(len(j.traces))
	}

	// Routed sweeps are planned at the router; replay the plans.
	var plans samples
	var specs []machdef.Spec
	var w queuemodel.Workload
	for _, r := range reqs {
		if r.kind != sweepReq {
			continue
		}
		sp := tr.Start("dse.PlanSweep", 0, op)
		pl, err := dse.PlanSweep(*r.sweep)
		plans = append(plans, sp.End())
		if err != nil {
			return err
		}
		for _, p := range pl.Report.Points {
			specs = append(specs, p.Spec)
		}
		w = queuemodel.WorkloadOf(pl.Traces)
	}
	vals["dse.plan_ms"] = ms(plans.median())
	replayModel(tr, op, specs, w, vals)
	return nil
}
