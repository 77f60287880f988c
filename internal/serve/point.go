package serve

import (
	"encoding/json"
	"fmt"
	"net/http"

	"mfup/internal/core"
	"mfup/internal/dse"
	"mfup/internal/journal"
	"mfup/internal/runner"
)

// The sweep-point job type: POST /v1/points takes one dse.PointSpec —
// a single machine definition over a sweep workload — and returns its
// simulated rate. It exists for the cluster router, which decomposes
// a sweep into points and dispatches each to the worker that owns its
// content key; but it is an ordinary job class, admitted through the
// same token bucket, bounded queue, and circuit breaker as the rest.
//
// The job key IS the dse point-journal key ("dse-point/v1:..."), so
// it can never collide with the hex job keys or the "sweep:"-prefixed
// sweep keys — and so the worker's flock'd point journal serves warm
// points to the cluster exactly as it serves them to local sweeps.
// POST is idempotent by content addressing: a router that re-issues a
// point after a lost reply gets the same bytes the first dispatch
// produced (or would have).

// pointResult is the wire form of a completed point. The rate is a
// journal.FormatRate hex float, which round-trips exactly — two
// workers that compute the same point marshal byte-identical
// documents, the invariant the cluster's corruption verdict checks.
type pointResult struct {
	Key  string `json:"key"`
	Rate string `json:"rate"`
}

// ParsePointResult decodes a pointResult document and its exact rate;
// the router uses it to fold worker replies back into a sweep report.
func ParsePointResult(raw []byte) (key string, rate float64, err error) {
	var pr pointResult
	if err := json.Unmarshal(raw, &pr); err != nil {
		return "", 0, fmt.Errorf("point result: %v", err)
	}
	rate, err = journal.ParseRate(pr.Rate)
	if err != nil || pr.Key == "" {
		return "", 0, fmt.Errorf("point result: bad document %.120s", raw)
	}
	return pr.Key, rate, nil
}

// handlePointSubmit admits one sweep point.
func (s *Server) handlePointSubmit(w http.ResponseWriter, r *http.Request) {
	s.stats.submitted.Add(1)
	s.stats.points.Add(1)
	if !s.gate(w) {
		return
	}

	var ps dse.PointSpec
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(body).Decode(&ps); err != nil {
		s.stats.badSpec.Add(1)
		s.writeError(w, http.StatusBadRequest, fmt.Sprintf("decoding point spec: %v", err), 0)
		return
	}
	c, err := ps.Canonicalize()
	if err != nil {
		s.stats.badSpec.Add(1)
		s.writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	key := c.Key()
	s.admit(w, r, &job{id: key, key: key, point: &c}, s.cfg.DefaultTimeout)
}

// runPoint executes one admitted point on a worker: the point journal
// first (a warm point costs a map lookup), then a checked simulation,
// then journal and cache appends so both the local sweep driver and a
// restarted daemon see the point warm.
func (s *Server) runPoint(j *job) {
	if s.sweepJ != nil {
		if rate, ok := s.sweepJ.Lookup(j.key); ok {
			s.finishPoint(j, rate)
			return
		}
	}
	rate, err := j.point.Run(s.workCtx, core.Limits{Deadline: j.deadline})
	if err != nil {
		transient := runner.Transient(err)
		s.breaker.Failure(j.key, !transient)
		s.log.Warn("point failed", "key", short(j.key), "err", err.Error(), "transient", transient)
		s.finish(j, nil, &jobError{Msg: err.Error(), Transient: transient})
		return
	}
	if s.sweepJ != nil {
		s.sweepJ.Record(j.key, rate)
	}
	s.finishPoint(j, rate)
}

// finishPoint marshals and publishes a point's rate.
func (s *Server) finishPoint(j *job, rate float64) {
	raw, err := json.Marshal(pointResult{Key: j.key, Rate: journal.FormatRate(rate)})
	if err != nil {
		s.breaker.Failure(j.key, true)
		s.finish(j, nil, &jobError{Msg: fmt.Sprintf("marshaling point result: %v", err)})
		return
	}
	s.cache.Put(j.key, raw)
	if cerr := s.cache.Err(); cerr != nil {
		s.log.Error("cache journal write failed; results no longer durable", "err", cerr.Error())
	}
	s.breaker.Success(j.key)
	s.finish(j, raw, nil)
}
