package dse

import (
	"context"
	"fmt"

	"mfup/internal/core"
	"mfup/internal/machdef"
	"mfup/internal/runner"
)

// PointSpec is one sweep point as a standalone, addressable unit of
// work: a single machine definition over a sweep workload. It is the
// currency of cluster sharding — the router decomposes a sweep into
// PointSpecs and dispatches each to the worker that owns its content
// key, and any worker can compute any point because the key scheme
// (and therefore the journal line it produces) is shared by
// construction with the in-process sweep driver.
//
// Extrapolate is carried for execution but excluded from the key: the
// extrapolation engine is bit-identical to full simulation by
// contract, so the rate is the same either way.
type PointSpec struct {
	Spec        machdef.Spec `json:"spec"`
	Loops       string       `json:"loops,omitempty"` // scalar (default) | vectorizable | all
	Scale       int          `json:"scale,omitempty"`
	Extrapolate bool         `json:"extrapolate,omitempty"`
}

// Canonicalize validates the point and rewrites it into the normal
// form Key hashes: machine definition canonicalized, workload
// defaults spelled out, under the same rules as a sweep's.
func (p PointSpec) Canonicalize() (PointSpec, error) {
	c := p
	spec, err := machdef.Canonicalize(c.Spec)
	if err != nil {
		return c, fmt.Errorf("dse: point: %w", err)
	}
	if spec.Kind == "vector" {
		return c, fmt.Errorf("dse: point: the vector machine has its own datapath and is outside the sweep space")
	}
	c.Spec = spec
	switch c.Loops {
	case "", "scalar":
		c.Loops = "scalar"
	case "vectorizable", "all":
	default:
		return c, fmt.Errorf("dse: point: loops %q: want scalar, vectorizable, or all", p.Loops)
	}
	if c.Scale < 0 {
		return c, fmt.Errorf("dse: point: scale %d cannot be negative", c.Scale)
	}
	return c, nil
}

// Key returns the point's content address under the sweep journal's
// key scheme. Call Canonicalize first: the key is a function of the
// canonical form, and two respellings of the same point must collide.
func (p PointSpec) Key() string {
	return pointKey(SweepSpec{Loops: p.Loops, Scale: p.Scale}, p.Spec.Key())
}

// Run simulates the point and returns its harmonic-mean issue rate,
// bit-identical to the rate the in-process sweep driver would record
// for the same key. Errors pass through the runner's classification,
// so runner.Transient distinguishes a deadline from a divergence.
func (p PointSpec) Run(ctx context.Context, limits core.Limits) (float64, error) {
	c, err := p.Canonicalize()
	if err != nil {
		return 0, err
	}
	w := workloadFor(SweepSpec{Loops: c.Loops, Scale: c.Scale})
	if len(w.Kernels) == 0 {
		return 0, fmt.Errorf("dse: point: workload %q selects no loops", c.Loops)
	}
	results, _, errs := runner.RunCheckedStats(ctx, runner.Options{
		Parallel: 1, // a point is one unit of the cluster's parallelism, not a pool of its own
		Limits:   limits,
	}, []runner.Task{pointTask(c.Spec, w.Traces(), w.Virtual, c.Extrapolate)})
	if len(errs) > 0 {
		return 0, errs[0]
	}
	rate, err := pointRate(results[0])
	if err != nil {
		return 0, fmt.Errorf("dse: point %s: %w", c.Key(), err)
	}
	return rate, nil
}
