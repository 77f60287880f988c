package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mfup/internal/faultinject"
	"mfup/internal/serve"
)

// Config parameterizes a Router. Only Peers is required; the zero
// value of everything else is a working production default.
type Config struct {
	Peers []string // worker base URLs, e.g. http://127.0.0.1:8081

	// Health membership: every ProbeInterval each peer's /readyz is
	// probed with ProbeTimeout; DownAfter consecutive failures take
	// the peer out of the rendezvous ranking, one success puts it
	// back. Request-path failures are the breaker's business, not the
	// prober's — the two recover a flaky peer independently.
	ProbeInterval time.Duration // <= 0 means 1s
	ProbeTimeout  time.Duration // <= 0 means 2s
	DownAfter     int           // <= 0 means 3

	// HedgeAfter is the tail-latency trigger: when the first dispatch
	// of a request has not answered within it, a second dispatch goes
	// to the next-ranked peer and the first answer wins. Safe by the
	// package's idempotency argument; the loser is cancelled.
	HedgeAfter time.Duration // <= 0 means 2s

	// MaxRetryAfter caps the Retry-After the router forwards when the
	// whole fleet sheds; the floor is always 1s (see ClampRetryAfter).
	MaxRetryAfter time.Duration // <= 0 means 60s

	// Per-peer circuit breaker (serve.Breaker keyed by peer URL):
	// threshold consecutive transport-level failures quarantine the
	// peer for the cooldown. Threshold < 0 disables; 0 means 3.
	BreakerThreshold int
	BreakerCooldown  time.Duration // <= 0 means 5s

	// SweepTimeout bounds one routed sweep end to end; PointTimeout
	// bounds each point dispatch. Concurrency is the router-wide cap
	// on in-flight point dispatches; <= 0 means min(16, 4 * peers).
	SweepTimeout time.Duration // <= 0 means 10m
	PointTimeout time.Duration // <= 0 means 2m
	Concurrency  int

	Client *http.Client // nil means a default client (no global timeout; contexts govern)
	Log    *slog.Logger // nil discards

	now func() time.Time // test seam
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.DownAfter <= 0 {
		c.DownAfter = 3
	}
	if c.HedgeAfter <= 0 {
		c.HedgeAfter = 2 * time.Second
	}
	if c.MaxRetryAfter <= 0 {
		c.MaxRetryAfter = 60 * time.Second
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.SweepTimeout <= 0 {
		c.SweepTimeout = 10 * time.Minute
	}
	if c.PointTimeout <= 0 {
		c.PointTimeout = 2 * time.Minute
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 4 * len(c.Peers)
		if c.Concurrency > 16 {
			c.Concurrency = 16
		}
		if c.Concurrency < 1 {
			c.Concurrency = 1
		}
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.Log == nil {
		c.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// peer is one worker's membership record.
type peer struct {
	url string

	healthy     atomic.Bool
	consecFails atomic.Int64 // consecutive probe failures

	forwarded  atomic.Int64 // dispatches launched
	failures   atomic.Int64 // transport-level dispatch failures
	probeFails atomic.Int64 // total probe failures
}

// Router shards mfud's job classes across a fleet of worker
// processes. It holds no durable state of its own — results live in
// the workers' content-addressed caches and point journals — so a
// router restart loses nothing a client retry cannot re-derive.
type Router struct {
	cfg     Config
	log     *slog.Logger
	client  *http.Client
	peers   []*peer // config order; rendezvous rank decides dispatch order
	breaker *serve.Breaker

	mu     sync.Mutex
	sweeps map[string]*routedSweep // by sweep key, bounded FIFO
	order  []string

	rootCtx    context.Context
	rootCancel context.CancelFunc
	probeWG    sync.WaitGroup

	stats rstats
}

// rstats is the router's observability surface, all atomics.
type rstats struct {
	forwarded  atomic.Int64 // requests dispatched to the fleet
	badSpec    atomic.Int64 // 400 at the router, never dispatched
	hedges     atomic.Int64 // hedge dispatches launched
	hedgeWins  atomic.Int64 // requests won by the hedge, not the primary
	failovers  atomic.Int64 // replacement dispatches after a failure or shed
	shedAll    atomic.Int64 // refusals because every eligible peer shed or failed
	sweeps     atomic.Int64 // sweeps routed
	pointsDone atomic.Int64 // sweep points resolved by the fleet
	reassigned atomic.Int64 // points served by a peer other than their owner
	injected   atomic.Int64 // peer.* faults fired
}

// New builds a Router over the configured fleet and starts its
// health prober. Peers start healthy (optimistic: requests flow
// before the first probe round completes) and URLs are normalized to
// scheme://host with no trailing slash.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: a router needs at least one peer")
	}
	seen := make(map[string]bool)
	ctx, cancel := context.WithCancel(context.Background())
	rt := &Router{
		cfg:        cfg,
		log:        cfg.Log,
		client:     cfg.Client,
		breaker:    serve.NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.now),
		sweeps:     make(map[string]*routedSweep),
		rootCtx:    ctx,
		rootCancel: cancel,
	}
	for _, raw := range cfg.Peers {
		u := NormalizePeer(raw)
		if u == "" {
			cancel()
			return nil, fmt.Errorf("cluster: empty peer URL in %q", strings.Join(cfg.Peers, ","))
		}
		if seen[u] {
			cancel()
			return nil, fmt.Errorf("cluster: duplicate peer %s", u)
		}
		seen[u] = true
		p := &peer{url: u}
		p.healthy.Store(true)
		rt.peers = append(rt.peers, p)
	}
	rt.probeWG.Add(1)
	go rt.probeLoop()
	rt.log.Info("routing", "peers", len(rt.peers), "hedge_after", cfg.HedgeAfter)
	return rt, nil
}

// NormalizePeer canonicalizes one peer URL: scheme defaulted to
// http, trailing slashes stripped, so "127.0.0.1:8081" and
// "http://127.0.0.1:8081/" name the same peer in the ranking.
func NormalizePeer(raw string) string {
	u := strings.TrimSpace(raw)
	u = strings.TrimRight(u, "/")
	if u == "" {
		return ""
	}
	if !strings.Contains(u, "://") {
		u = "http://" + u
	}
	return u
}

// Close stops the prober and cancels in-flight routed work.
func (rt *Router) Close() {
	rt.rootCancel()
	rt.probeWG.Wait()
}

// probeLoop is the membership heartbeat.
func (rt *Router) probeLoop() {
	defer rt.probeWG.Done()
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.rootCtx.Done():
			return
		case <-t.C:
			rt.probeAll()
		}
	}
}

func (rt *Router) probeAll() {
	var wg sync.WaitGroup
	for _, p := range rt.peers {
		wg.Add(1)
		go func(p *peer) {
			defer wg.Done()
			rt.probe(p)
		}(p)
	}
	wg.Wait()
}

// probe checks one peer's /readyz. Probes bypass the peer.* fault
// sites deliberately: chaos plans perturb the request path, not the
// membership that decides where requests go.
func (rt *Router) probe(p *peer) {
	ctx, cancel := context.WithTimeout(rt.rootCtx, rt.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/readyz", nil)
	if err != nil {
		return
	}
	resp, err := rt.client.Do(req)
	ok := err == nil && resp.StatusCode == http.StatusOK
	if resp != nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if ok {
		if !p.healthy.Load() && p.consecFails.Load() >= int64(rt.cfg.DownAfter) {
			rt.log.Info("peer rejoined", "peer", p.url)
		}
		p.consecFails.Store(0)
		p.healthy.Store(true)
		return
	}
	p.probeFails.Add(1)
	if n := p.consecFails.Add(1); n == int64(rt.cfg.DownAfter) {
		p.healthy.Store(false)
		rt.log.Warn("peer down", "peer", p.url, "consecutive_probe_failures", n)
	}
}

// peerURLs lists every configured peer, health ignored — the
// reference ranking reassignment is counted against.
func (rt *Router) peerURLs() []string {
	urls := make([]string, len(rt.peers))
	for i, p := range rt.peers {
		urls[i] = p.url
	}
	return urls
}

// ranked returns the key's dispatch order over currently-healthy
// peers. An empty result means the whole fleet is down.
func (rt *Router) ranked(key string) []*peer {
	byURL := make(map[string]*peer, len(rt.peers))
	var alive []string
	for _, p := range rt.peers {
		if p.healthy.Load() {
			alive = append(alive, p.url)
			byURL[p.url] = p
		}
	}
	order := Rank(key, alive)
	ranked := make([]*peer, len(order))
	for i, u := range order {
		ranked[i] = byURL[u]
	}
	return ranked
}

// ClampRetryAfter folds the fleet's shed responses into the one
// Retry-After the router forwards: the minimum the fleet asked for —
// the earliest instant any shard could admit — clamped into
// [1s, max]. Never zero or negative: "retry immediately" converts a
// shedding fleet into a retry storm, and a clock-skewed or buggy
// peer must not be able to induce one through the router.
func ClampRetryAfter(min time.Duration, max time.Duration) time.Duration {
	if max < time.Second {
		max = time.Second
	}
	if min < time.Second {
		return time.Second
	}
	if min > max {
		return max
	}
	return min
}

// parseRetryAfter reads a peer's Retry-After header as delay-seconds.
// An absent, malformed, zero or negative value reads as 1s. A value
// too large for a time.Duration saturates instead of wrapping, so
// ClampRetryAfter turns it into the cap rather than a fast retry.
func parseRetryAfter(h string) time.Duration {
	// ParseInt returns 0 for a malformed value and saturates an
	// out-of-range one at ±MaxInt64, so the value alone decides.
	s, _ := strconv.ParseInt(h, 10, 64)
	switch {
	case s <= 0:
		return time.Second
	case s > int64(math.MaxInt64/time.Second):
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(s) * time.Second
}

// delivered is a worker's definitive answer, forwarded verbatim.
type delivered struct {
	peer   *peer
	status int
	ctype  string
	body   []byte
}

// attemptOut classifies one dispatch: exactly one of res (answered),
// shed (alive but refusing), or err (transport-level failure) holds.
type attemptOut struct {
	peer  *peer
	hedge bool

	res        *delivered
	shed       bool
	shedStatus int
	retryAfter time.Duration
	err        error
}

// attempt dispatches one request to one peer through the peer.dial
// and peer.respond fault sites and classifies the outcome. 429/503
// are sheds (the peer is alive and doing its job); any other 5xx or
// a transport error is a peer failure.
func (rt *Router) attempt(ctx context.Context, p *peer, hedge bool, method, pathq string, body []byte) attemptOut {
	out := attemptOut{peer: p, hedge: hedge}
	if kind, at, _, armed := faultinject.Active().SiteFault("peer.dial"); armed {
		rt.stats.injected.Add(1)
		if kind == faultinject.KindStall {
			select {
			case <-time.After(time.Duration(at) * time.Millisecond):
			case <-ctx.Done():
				out.err = ctx.Err()
				return out
			}
		} else { // err (and panic, which has no meaning at a dial) = connect refused
			out.err = &faultinject.Error{Site: "peer.dial"}
			return out
		}
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, p.url+pathq, rd)
	if err != nil {
		out.err = err
		return out
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		out.err = err
		return out
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	resp.Body.Close()
	if err != nil {
		out.err = fmt.Errorf("reading %s response: %w", p.url, err)
		return out
	}
	if kind, at, _, armed := faultinject.Active().SiteFault("peer.respond"); armed {
		rt.stats.injected.Add(1)
		if kind == faultinject.KindStall {
			select {
			case <-time.After(time.Duration(at) * time.Millisecond):
			case <-ctx.Done():
				out.err = ctx.Err()
				return out
			}
		} else { // the worker answered; the router never hears it
			out.err = fmt.Errorf("response from %s dropped: %w", p.url, &faultinject.Error{Site: "peer.respond"})
			return out
		}
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		out.shed, out.shedStatus = true, resp.StatusCode
		out.retryAfter = parseRetryAfter(resp.Header.Get("Retry-After"))
	case resp.StatusCode >= 500:
		out.err = fmt.Errorf("peer %s: HTTP %d: %.120s", p.url, resp.StatusCode, b)
	default:
		out.res = &delivered{peer: p, status: resp.StatusCode, ctype: resp.Header.Get("Content-Type"), body: b}
	}
	return out
}

// fwdResult is forward's verdict: res to relay verbatim, or a
// synthesized refusal (status/msg/retryAfter).
type fwdResult struct {
	res        *delivered
	status     int
	msg        string
	retryAfter time.Duration
}

// forward dispatches one request across the fleet in the key's
// rendezvous order: primary first, a hedge to the next-ranked peer
// if the primary is slow, failover on transport failures (breaker
// material) and sheds (not breaker material — a shedding peer is
// healthy). First definitive answer wins and cancels the rest. If
// every eligible peer sheds or fails, the refusal aggregates the
// fleet's Retry-After: 429 when the whole fleet said 429, 503
// otherwise, the interval the *minimum* shed asked for, clamped so
// it is never zero.
func (rt *Router) forward(ctx context.Context, key, method, pathq string, body []byte) fwdResult {
	ranked := rt.ranked(key)
	if len(ranked) == 0 {
		rt.stats.shedAll.Add(1)
		return fwdResult{status: http.StatusServiceUnavailable, msg: "no available peers", retryAfter: time.Second}
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel()

	var sheds []time.Duration
	only429 := true
	var lastErr error
	launched := make(map[*peer]bool)
	resolved := make(map[*peer]bool)
	ch := make(chan attemptOut, len(ranked))
	next := 0
	// launch starts a dispatch on the next breaker-admitted peer in
	// rank order; a quarantined peer counts as a shed at its
	// remaining cooldown.
	launch := func(hedge bool) bool {
		for next < len(ranked) {
			p := ranked[next]
			next++
			if ok, retry := rt.breaker.Allow(p.url); !ok {
				sheds = append(sheds, retry)
				only429 = false
				continue
			}
			p.forwarded.Add(1)
			launched[p] = true
			go func(p *peer, hedge bool) {
				ch <- rt.attempt(actx, p, hedge, method, pathq, body)
			}(p, hedge)
			return true
		}
		return false
	}
	// releaseLosers frees half-open probe slots claimed for attempts
	// whose outcome the router will never read (hedge losers).
	releaseLosers := func() {
		for p := range launched {
			if !resolved[p] {
				rt.breaker.Release(p.url)
			}
		}
	}

	inflight := 0
	if launch(false) {
		inflight++
		rt.stats.forwarded.Add(1)
	}
	hedgeTimer := time.NewTimer(rt.cfg.HedgeAfter)
	defer hedgeTimer.Stop()
	hedged := false
	for inflight > 0 {
		select {
		case out := <-ch:
			inflight--
			resolved[out.peer] = true
			switch {
			case out.res != nil:
				rt.breaker.Success(out.peer.url)
				if out.hedge {
					rt.stats.hedgeWins.Add(1)
				}
				releaseLosers()
				return fwdResult{res: out.res}
			case out.shed:
				rt.breaker.Success(out.peer.url) // alive; shedding is the admission layer working
				sheds = append(sheds, out.retryAfter)
				if out.shedStatus != http.StatusTooManyRequests {
					only429 = false
				}
				if launch(false) {
					inflight++
					rt.stats.failovers.Add(1)
				}
			default:
				out.peer.failures.Add(1)
				rt.breaker.Failure(out.peer.url, true)
				rt.log.Warn("peer dispatch failed", "peer", out.peer.url, "err", out.err.Error())
				lastErr = out.err
				if launch(false) {
					inflight++
					rt.stats.failovers.Add(1)
				}
			}
		case <-hedgeTimer.C:
			if !hedged {
				hedged = true
				if launch(true) {
					inflight++
					rt.stats.hedges.Add(1)
				}
			}
		case <-actx.Done():
			releaseLosers()
			return fwdResult{status: http.StatusServiceUnavailable,
				msg: "request cancelled: " + actx.Err().Error(), retryAfter: time.Second}
		}
	}

	rt.stats.shedAll.Add(1)
	if len(sheds) > 0 {
		min := sheds[0]
		for _, d := range sheds[1:] {
			if d < min {
				min = d
			}
		}
		status := http.StatusServiceUnavailable
		msg := "all peers shedding or failed"
		if only429 && lastErr == nil {
			status = http.StatusTooManyRequests
			msg = "all peers shedding"
		}
		return fwdResult{status: status, msg: msg, retryAfter: ClampRetryAfter(min, rt.cfg.MaxRetryAfter)}
	}
	msg := "all peers failed"
	if lastErr != nil {
		msg = fmt.Sprintf("all peers failed; last: %v", lastErr)
	}
	return fwdResult{status: http.StatusBadGateway, msg: msg, retryAfter: time.Second}
}

// Handler returns the router's routes: the worker API re-exposed —
// same paths, same envelopes — so a client cannot tell a router from
// a single daemon except by reading /v1/stats.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", rt.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs/{key}", rt.handleJobGet)
	mux.HandleFunc("POST /v1/sweeps", rt.handleSweepSubmit)
	mux.HandleFunc("GET /v1/sweeps/{key}", rt.handleSweepGet)
	mux.HandleFunc("GET /v1/stats", rt.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /readyz", rt.handleReady)
	return mux
}

// handleJobSubmit canonicalizes locally — a defective spec is
// refused at the router without burning a dispatch — and forwards
// the *original* body: the worker re-canonicalizes to the same key,
// and its response relays byte-verbatim.
func (rt *Router) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		rt.stats.badSpec.Add(1)
		rt.writeError(w, http.StatusBadRequest, fmt.Sprintf("reading job spec: %v", err), 0)
		return
	}
	var spec serve.JobSpec
	if err := json.Unmarshal(body, &spec); err != nil {
		rt.stats.badSpec.Add(1)
		rt.writeError(w, http.StatusBadRequest, fmt.Sprintf("decoding job spec: %v", err), 0)
		return
	}
	c, err := serve.Canonicalize(spec)
	if err != nil {
		rt.stats.badSpec.Add(1)
		rt.writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	rt.relay(w, rt.forward(r.Context(), serve.Key(c), http.MethodPost, withQuery("/v1/jobs", r), body))
}

// handleJobGet polls the fleet in the key's rank order: with
// failover and hedging a result may live on any peer, so the first
// peer that answers something other than 404 speaks for the fleet,
// and only a unanimous 404 is a 404.
func (rt *Router) handleJobGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	ranked := rt.ranked(key)
	if len(ranked) == 0 {
		rt.writeError(w, http.StatusServiceUnavailable, "no available peers", time.Second)
		return
	}
	var notFound *delivered
	for _, p := range ranked {
		if ok, _ := rt.breaker.Allow(p.url); !ok {
			continue
		}
		p.forwarded.Add(1)
		rt.stats.forwarded.Add(1)
		out := rt.attempt(r.Context(), p, false, http.MethodGet, withQuery("/v1/jobs/"+key, r), nil)
		switch {
		case out.res != nil:
			rt.breaker.Success(p.url)
			if out.res.status != http.StatusNotFound {
				rt.relayDelivered(w, out.res)
				return
			}
			if notFound == nil {
				notFound = out.res
			}
		case out.shed:
			rt.breaker.Success(p.url)
		default:
			p.failures.Add(1)
			rt.breaker.Failure(p.url, true)
		}
	}
	if notFound != nil {
		rt.relayDelivered(w, notFound)
		return
	}
	rt.writeError(w, http.StatusServiceUnavailable, "no peer could answer", time.Second)
}

func (rt *Router) handleReady(w http.ResponseWriter, r *http.Request) {
	for _, p := range rt.peers {
		if p.healthy.Load() {
			io.WriteString(w, "ready\n")
			return
		}
	}
	http.Error(w, "no available peers", http.StatusServiceUnavailable)
}

// relay writes a forward's outcome: the worker's answer verbatim, or
// the synthesized refusal.
func (rt *Router) relay(w http.ResponseWriter, fr fwdResult) {
	if fr.res != nil {
		rt.relayDelivered(w, fr.res)
		return
	}
	rt.writeError(w, fr.status, fr.msg, fr.retryAfter)
}

func (rt *Router) relayDelivered(w http.ResponseWriter, d *delivered) {
	if d.ctype != "" {
		w.Header().Set("Content-Type", d.ctype)
	}
	w.WriteHeader(d.status)
	w.Write(d.body)
}

// PeerStats is one peer's row in the router's /v1/stats document.
type PeerStats struct {
	URL           string `json:"url"`
	Healthy       bool   `json:"healthy"`
	Quarantined   bool   `json:"quarantined"` // breaker-open right now
	Forwarded     int64  `json:"forwarded"`
	Failures      int64  `json:"failures"`
	ProbeFailures int64  `json:"probe_failures"`
}

// Stats is the router's /v1/stats document.
type Stats struct {
	Forwarded        int64       `json:"forwarded"`
	BadSpec          int64       `json:"bad_spec"`
	Hedges           int64       `json:"hedges_fired"`
	HedgeWins        int64       `json:"hedge_wins"`
	Failovers        int64       `json:"failovers"`
	ShedAllPeers     int64       `json:"shed_all_peers"`
	SweepsRouted     int64       `json:"sweeps_routed"`
	PointsDone       int64       `json:"points_done"`
	PointsReassigned int64       `json:"points_reassigned"`
	Injected         int64       `json:"injected_faults"`
	Peers            []PeerStats `json:"peers"`
}

// Snapshot reads the router's counters and per-peer state.
func (rt *Router) Snapshot() Stats {
	st := Stats{
		Forwarded:        rt.stats.forwarded.Load(),
		BadSpec:          rt.stats.badSpec.Load(),
		Hedges:           rt.stats.hedges.Load(),
		HedgeWins:        rt.stats.hedgeWins.Load(),
		Failovers:        rt.stats.failovers.Load(),
		ShedAllPeers:     rt.stats.shedAll.Load(),
		SweepsRouted:     rt.stats.sweeps.Load(),
		PointsDone:       rt.stats.pointsDone.Load(),
		PointsReassigned: rt.stats.reassigned.Load(),
		Injected:         rt.stats.injected.Load(),
	}
	for _, p := range rt.peers {
		st.Peers = append(st.Peers, PeerStats{
			URL:           p.url,
			Healthy:       p.healthy.Load(),
			Quarantined:   rt.breaker.QuarantinedKey(p.url),
			Forwarded:     p.forwarded.Load(),
			Failures:      p.failures.Load(),
			ProbeFailures: p.probeFails.Load(),
		})
	}
	return st
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	rt.writeJSON(w, http.StatusOK, rt.Snapshot())
}

func (rt *Router) writeError(w http.ResponseWriter, status int, msg string, retry time.Duration) {
	resp := serve.ErrorResponse{Error: msg}
	if retry > 0 {
		resp.RetryAfter = serve.RetryAfterSeconds(retry)
		w.Header().Set("Retry-After", strconv.Itoa(resp.RetryAfter))
	}
	rt.writeJSON(w, status, resp)
}

func (rt *Router) writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, "encoding response", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(b, '\n'))
}

// withQuery re-attaches the client's query string (wait=1) to the
// forwarded path.
func withQuery(path string, r *http.Request) string {
	if r.URL.RawQuery != "" {
		return path + "?" + r.URL.RawQuery
	}
	return path
}
