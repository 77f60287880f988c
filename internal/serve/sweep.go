package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"

	"mfup/internal/dse"
)

// The design-space sweep job type: POST /v1/sweeps takes an
// internal/dse sweep specification and runs the whole
// expand-price-prune-simulate pipeline as one admitted job, through
// the same token bucket, bounded queue, circuit breaker, and
// content-addressed result cache as single simulations. The sweep's
// content address is its canonical spec's key; the cached result is
// the full dse.Report JSON, so a repeated submission — or a GET by
// key after a restart — serves the frontier byte-identically without
// re-simulating a single point.
//
// Sweep cache keys carry a namespace prefix so a sweep and a
// single-simulation job can never collide in the cache, the active
// set, or the breaker, even though both address by SHA-256 hex.
const sweepKeyPrefix = "sweep:"

// handleSweepSubmit admits one design-space sweep. Sweeps are the
// heaviest job class the daemon runs, so they get the server's
// maximum deadline rather than the single-job default.
func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	s.stats.submitted.Add(1)
	s.stats.sweeps.Add(1)
	if !s.gate(w) {
		return
	}

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		s.stats.badSpec.Add(1)
		s.writeError(w, http.StatusBadRequest, fmt.Sprintf("reading sweep spec: %v", err), 0)
		return
	}
	sw, err := dse.ParseRequest(body)
	if err != nil {
		s.stats.badSpec.Add(1)
		s.writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	// Expansion errors (over the point cap, or no valid machine) are
	// deterministic spec defects; surface them at admission, not from
	// a worker. ParseRequest has already refused a maxpoints above
	// dse.DefaultMaxPoints.
	if _, _, _, err := sw.Expand(); err != nil {
		s.stats.badSpec.Add(1)
		s.writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	id := sw.Key()
	s.admit(w, r, &job{id: id, key: sweepKeyPrefix + id, sweep: &sw}, s.cfg.MaxTimeout)
}

// handleSweepGet serves sweep status and reports by the sweep's
// content key, the same way /v1/jobs/{key} serves single jobs.
func (s *Server) handleSweepGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	s.serveByKey(w, key, sweepKeyPrefix+key)
}

// runSweep executes one admitted sweep end to end on a worker. The
// sweep borrows the whole worker pool for its points — it occupies
// one queue slot but is itself a batch — and journals every simulated
// point to the shared sweep journal, so even a sweep that dies at its
// deadline leaves its completed points resumable.
func (s *Server) runSweep(j *job) {
	ctx, cancel := context.WithDeadline(s.workCtx, j.deadline)
	defer cancel()
	rep, err := dse.Run(ctx, *j.sweep, dse.Options{
		Parallel: s.cfg.Workers,
		Journal:  s.sweepJ,
	})
	if s.sweepJ != nil {
		if jerr := s.sweepJ.Flush(); jerr != nil {
			s.log.Error("sweep journal write failed; points no longer durable", "err", jerr.Error())
		}
	}
	if err != nil {
		// Canonicalization and workload errors are deterministic:
		// breaker material.
		s.breaker.Failure(j.key, true)
		s.finish(j, nil, &jobError{Msg: err.Error()})
		return
	}
	if ctx.Err() != nil {
		// The deadline cut the sweep short. The report is partial, so
		// it must not be cached as the sweep's result — but the points
		// already simulated are in the journal, so a resubmission picks
		// up where this one stopped.
		s.breaker.Failure(j.key, false)
		s.finish(j, nil, &jobError{
			Msg:       fmt.Sprintf("sweep deadline exceeded after %d of %d points", rep.Simulated+rep.FromJournal, rep.Deduped-rep.Pruned),
			Transient: true,
		})
		return
	}
	if rep.Failed > 0 {
		s.breaker.Failure(j.key, true)
		s.finish(j, nil, &jobError{Msg: fmt.Sprintf("%d sweep points failed", rep.Failed)})
		return
	}
	raw, err := rep.JSON()
	if err != nil {
		s.breaker.Failure(j.key, true)
		s.finish(j, nil, &jobError{Msg: fmt.Sprintf("marshaling sweep report: %v", err)})
		return
	}
	s.cache.Put(j.key, raw)
	if cerr := s.cache.Err(); cerr != nil {
		s.log.Error("cache journal write failed; results no longer durable", "err", cerr.Error())
	}
	s.breaker.Success(j.key)
	s.log.Info("sweep complete", "key", short(j.id), "points", rep.Deduped,
		"pruned", rep.Pruned, "simulated", rep.Simulated, "journal", rep.FromJournal)
	s.finish(j, raw, nil)
}
