package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"mfup/internal/dse"
	"mfup/internal/serve"
)

// Routed sweeps are where the router is more than a proxy: it runs
// the deterministic front half of the sweep itself (dse.PlanSweep —
// expand, price, prune), dispatches every surviving point to the
// worker that owns its content key, and assembles the same frontier
// the in-process driver would (dse.Planned.Finish). Because point
// keys are shared by construction with the workers' sweep journals,
// a worker that dies mid-sweep loses only its *unjournaled* points:
// the router re-dispatches them to survivors, each of which computes
// the identical rate (or serves it from its own journal), and the
// finished report is byte-identical to an unfaulted single-process
// run. That is the crash-consistency argument: there is no sweep
// state to recover because every piece of sweep state is a
// content-addressed point some worker can re-derive.

// maxSweeps bounds the router's in-memory sweep registry; completed
// entries are evicted FIFO beyond it (the durable copies of their
// points live in the workers' journals).
const maxSweeps = 256

// routedSweep is one sweep's registry entry.
type routedSweep struct {
	id     string
	done   chan struct{}
	result json.RawMessage // full report bytes when finished cleanly
	errMsg string
	transi bool
}

func (rs *routedSweep) finished() bool {
	select {
	case <-rs.done:
		return true
	default:
		return false
	}
}

// handleSweepSubmit admits one sweep at the router: parse and expand
// locally (deterministic spec defects, including a maxpoints above
// dse.DefaultMaxPoints, are 400s here, never dispatched), dedupe
// against the registry by content key, then shard the points across
// the fleet.
func (rt *Router) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		rt.stats.badSpec.Add(1)
		rt.writeError(w, http.StatusBadRequest, fmt.Sprintf("reading sweep spec: %v", err), 0)
		return
	}
	sw, err := dse.ParseRequest(body)
	if err != nil {
		rt.stats.badSpec.Add(1)
		rt.writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	if _, _, _, err := sw.Expand(); err != nil {
		rt.stats.badSpec.Add(1)
		rt.writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	id := sw.Key()

	rt.mu.Lock()
	rs, exists := rt.sweeps[id]
	if !exists {
		rs = &routedSweep{id: id, done: make(chan struct{})}
		rt.sweeps[id] = rs
		rt.order = append(rt.order, id)
		rt.evictLocked()
	}
	rt.mu.Unlock()

	if !exists {
		rt.stats.sweeps.Add(1)
		go rt.runSweep(sw, rs)
	} else if rs.finished() && rs.errMsg == "" {
		// A repeat of a completed sweep is a cache hit, same as a
		// worker serving from its result journal.
		rt.writeJSON(w, http.StatusOK, serve.JobResponse{ID: rs.id, Status: "done", Cached: true, Result: rs.result})
		return
	}

	if wait, _ := strconv.ParseBool(r.URL.Query().Get("wait")); wait {
		select {
		case <-rs.done:
			rt.writeSweepFinished(w, rs, false)
		case <-r.Context().Done():
			// Client hung up; the sweep keeps running and its report
			// waits in the registry for the retry.
		}
		return
	}
	rt.writeJSON(w, http.StatusAccepted, serve.JobResponse{ID: rs.id, Status: "running"})
}

// handleSweepGet serves a routed sweep from the registry, falling
// back to polling the fleet — a sweep submitted directly to a worker
// (or routed before a router restart) lives in some worker's cache.
func (rt *Router) handleSweepGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	rt.mu.Lock()
	rs, ok := rt.sweeps[key]
	rt.mu.Unlock()
	if ok {
		if !rs.finished() {
			rt.writeJSON(w, http.StatusOK, serve.JobResponse{ID: rs.id, Status: "running"})
			return
		}
		rt.writeSweepFinished(w, rs, rs.errMsg == "")
		return
	}
	ranked := rt.ranked("sweep:" + key)
	var notFound *delivered
	for _, p := range ranked {
		if ok, _ := rt.breaker.Allow(p.url); !ok {
			continue
		}
		p.forwarded.Add(1)
		rt.stats.forwarded.Add(1)
		out := rt.attempt(r.Context(), p, false, http.MethodGet, withQuery("/v1/sweeps/"+key, r), nil)
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
	rt.writeError(w, http.StatusNotFound, "unknown job", 0)
}

func (rt *Router) writeSweepFinished(w http.ResponseWriter, rs *routedSweep, cached bool) {
	if rs.errMsg != "" {
		rt.writeJSON(w, http.StatusOK, serve.JobResponse{ID: rs.id, Status: "failed", Error: rs.errMsg, Transient: rs.transi})
		return
	}
	rt.writeJSON(w, http.StatusOK, serve.JobResponse{ID: rs.id, Status: "done", Cached: cached, Result: rs.result})
}

// evictLocked trims the registry FIFO, skipping entries still
// running. Caller holds rt.mu.
func (rt *Router) evictLocked() {
	for len(rt.order) > maxSweeps {
		evicted := false
		for i, id := range rt.order {
			if rs := rt.sweeps[id]; rs != nil && rs.finished() {
				delete(rt.sweeps, id)
				rt.order = append(rt.order[:i], rt.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return // everything is in flight; nothing safe to drop
		}
	}
}

// runSweep executes one routed sweep: plan locally, resolve every
// needed point against the fleet, finish the report. Point order
// inside the report is the plan's deterministic order, so the
// assembled bytes match a local run regardless of resolution order.
func (rt *Router) runSweep(sw dse.SweepSpec, rs *routedSweep) {
	ctx, cancel := context.WithTimeout(rt.rootCtx, rt.cfg.SweepTimeout)
	defer cancel()

	finish := func(result json.RawMessage, errMsg string, transient bool) {
		rs.result, rs.errMsg, rs.transi = result, errMsg, transient
		close(rs.done)
	}

	pl, err := dse.PlanSweep(sw)
	if err != nil {
		finish(nil, err.Error(), false)
		return
	}

	sem := make(chan struct{}, rt.cfg.Concurrency)
	var wg sync.WaitGroup
	var mu sync.Mutex // report counters; each goroutine owns its own point
	allPeers := rt.peerURLs()
	for _, i := range pl.Need {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			p := &pl.Report.Points[i]
			ps := dse.PointSpec{
				Spec:        p.Spec,
				Loops:       pl.Spec.Loops,
				Scale:       pl.Spec.Scale,
				Extrapolate: pl.Spec.Extrapolate,
			}
			body, err := json.Marshal(ps)
			if err != nil {
				mu.Lock()
				p.Err = fmt.Sprintf("marshaling point spec: %v", err)
				pl.Report.Failed++
				mu.Unlock()
				return
			}
			rate, servedBy, errMsg := rt.resolvePoint(ctx, p.Key, body)
			mu.Lock()
			defer mu.Unlock()
			if errMsg != "" {
				p.Err = errMsg
				pl.Report.Failed++
				return
			}
			// Simulated, not FromJournal, whoever computed it: the
			// report must read identically to a fresh local run. (A
			// worker serving the point warm from its journal is that
			// worker's business; the router asked for a simulation
			// and got the bit-identical rate either way.)
			p.Rate = rate
			p.Simulated = true
			pl.Report.Simulated++
			rt.stats.pointsDone.Add(1)
			// Reassignment is measured against the rendezvous owner
			// over ALL configured peers, health ignored: a stable
			// reference that does not shift as membership flaps.
			if servedBy != Owner(p.Key, allPeers) {
				rt.stats.reassigned.Add(1)
			}
		}(i)
	}
	wg.Wait()

	if ctx.Err() != nil {
		finish(nil, fmt.Sprintf("sweep deadline exceeded after %d of %d points",
			pl.Report.Simulated, len(pl.Need)), true)
		return
	}
	if pl.Report.Failed > 0 {
		finish(nil, fmt.Sprintf("%d sweep points failed", pl.Report.Failed), false)
		return
	}
	rep := pl.Finish()
	raw, err := rep.JSON()
	if err != nil {
		finish(nil, fmt.Sprintf("marshaling sweep report: %v", err), false)
		return
	}
	rt.log.Info("routed sweep complete", "key", shortKey(rs.id), "points", rep.Deduped,
		"pruned", rep.Pruned, "simulated", rep.Simulated, "reassigned", rt.stats.reassigned.Load())
	finish(raw, "", false)
}

// resolvePoint attaches a rate to one sweep point: dispatch to the
// key's owner (with the standard hedging and failover), parse the
// worker's answer, and retry transient outcomes — sheds, worker
// deadlines, whole-fleet blips — until the sweep's own deadline.
// Deterministic failures return immediately; retrying those would
// re-prove the same defect on every peer.
func (rt *Router) resolvePoint(ctx context.Context, key string, body []byte) (rate float64, servedBy, errMsg string) {
	backoff := 250 * time.Millisecond
	for {
		actx, cancel := context.WithTimeout(ctx, rt.cfg.PointTimeout)
		fr := rt.forward(actx, key, http.MethodPost, "/v1/points?wait=1", body)
		cancel()
		var retryIn time.Duration
		switch {
		case fr.res != nil && fr.res.status == http.StatusOK:
			var env serve.JobResponse
			if err := json.Unmarshal(fr.res.body, &env); err != nil {
				return 0, "", fmt.Sprintf("bad point envelope from %s: %v", fr.res.peer.url, err)
			}
			switch env.Status {
			case "done":
				k, rate, err := serve.ParsePointResult(env.Result)
				if err != nil {
					return 0, "", fmt.Sprintf("peer %s: %v", fr.res.peer.url, err)
				}
				if k != key {
					return 0, "", fmt.Sprintf("peer %s answered point %s for %s", fr.res.peer.url, shortKey(k), shortKey(key))
				}
				return rate, fr.res.peer.url, ""
			case "failed":
				if !env.Transient {
					return 0, "", env.Error
				}
				retryIn = backoff
			default: // queued/running: the wait was cut short; poll again
				retryIn = backoff
			}
		case fr.res != nil && fr.res.status == http.StatusAccepted:
			retryIn = backoff
		case fr.res != nil:
			// 400 and friends: deterministic, the point spec itself is
			// refused. No peer will ever answer differently.
			return 0, "", fmt.Sprintf("peer %s: HTTP %d: %.120s", fr.res.peer.url, fr.res.status, fr.res.body)
		default:
			// Whole-fleet shed or failure; honor the aggregate
			// Retry-After but pace the loop tighter than a client
			// would — the sweep deadline is the real bound.
			retryIn = fr.retryAfter
			if retryIn > 2*time.Second {
				retryIn = 2 * time.Second
			}
		}
		select {
		case <-ctx.Done():
			return 0, "", "sweep deadline: " + ctx.Err().Error()
		case <-time.After(retryIn):
		}
		if backoff < 2*time.Second {
			backoff *= 2
		}
	}
}

// shortKey abbreviates a content key for log lines.
func shortKey(key string) string {
	if len(key) > 24 {
		return key[:24]
	}
	return key
}
