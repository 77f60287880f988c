package dse

import (
	"context"
	"fmt"
	"math"
	"sort"

	"mfup/internal/core"
	"mfup/internal/isa"
	"mfup/internal/loops"
	"mfup/internal/machdef"
	"mfup/internal/queuemodel"
	"mfup/internal/runner"
	"mfup/internal/stats"
	"mfup/internal/trace"
)

// Point is one machine definition's place in the sweep.
type Point struct {
	Spec machdef.Spec `json:"spec"` // canonical
	Key  string       `json:"key"`  // content key of (spec, workload)

	Cost  float64 `json:"cost"`  // machdef.Spec.Cost area proxy
	Model float64 `json:"model"` // queueing-model predicted rate

	// Unpriced marks a point the model could not estimate; it is
	// exempt from pruning and from the calibration statistics.
	Unpriced bool `json:"unpriced,omitempty"`

	// Rate is the simulated harmonic-mean issue rate; 0 until the
	// point is simulated (or served from the journal).
	Rate        float64 `json:"rate,omitempty"`
	Simulated   bool    `json:"simulated,omitempty"`
	FromJournal bool    `json:"fromjournal,omitempty"`
	Pruned      bool    `json:"pruned,omitempty"`
	Frontier    bool    `json:"frontier,omitempty"`
	Err         string  `json:"err,omitempty"`
}

// ModelStats quantifies how well the analytic model tracked the
// simulator over the sweep.
type ModelStats struct {
	// MeanAbsRelErr is the mean |model-sim|/sim over rated points. The
	// model is an optimistic bound, so this is typically large; it is
	// reported for calibration, not correctness.
	MeanAbsRelErr float64 `json:"meanabsrelerr"`

	// FrontierAgreement is the fraction of pairwise orderings on the
	// simulated Pareto frontier that the model reproduces — the
	// cross-check the sweep is built around.
	FrontierAgreement float64 `json:"frontieragreement"`

	// Pairs is how many frontier pairs were compared.
	Pairs int `json:"pairs"`
}

// Report is one sweep's full outcome.
type Report struct {
	SweepKey string `json:"sweepkey"`
	Loops    string `json:"loops"`
	Scale    int    `json:"scale,omitempty"`

	Expanded    int `json:"expanded"`    // cartesian combinations visited
	Invalid     int `json:"invalid"`     // combinations outside the space
	Deduped     int `json:"deduped"`     // distinct machine definitions
	Pruned      int `json:"pruned"`      // dropped by the queueing model
	Simulated   int `json:"simulated"`   // actually run
	FromJournal int `json:"fromjournal"` // served from the resume journal
	Failed      int `json:"failed"`      // simulation failures

	Points []Point `json:"points"`

	// FrontierIdx indexes Points on the Pareto frontier (maximal rate
	// for their cost), cost-ascending.
	FrontierIdx []int `json:"frontier"`

	Model ModelStats `json:"model"`

	Notes []string `json:"notes,omitempty"`
}

// Options configures one sweep run.
type Options struct {
	Parallel int         // worker goroutines; <= 0 means all cores
	Limits   core.Limits // per-run execution bounds
	Journal  *Journal    // resume journal, or nil
}

// pointKey is the journal key of one (machine, workload) pair:
// readable, and by construction different whenever anything
// rate-affecting differs. Extrapolation is absent — it is
// bit-identical — as are the execution limits, which only affect
// whether a run completes.
func pointKey(s SweepSpec, specKey string) string {
	return fmt.Sprintf("dse-point/v1:loops=%s:scale=%d:machdef=%s", s.Loops, s.Scale, specKey)
}

// workloads holds the last workload a plan or point resolved. The
// plans and routed points of one sweep all ask for one (loops, scale),
// so each after the first reuses its kernels instead of building them.
var workloads core.WorkloadMemo

// workloadFor resolves the sweep's workload: the selected loop class
// at the requested scale, through the one resolver every simulator
// front end shares. The result is shared (core.WorkloadMemo.Scale).
func workloadFor(s SweepSpec) core.Workload {
	ks := loops.All()
	switch s.Loops {
	case "scalar":
		ks = loops.ByClass(loops.Scalar)
	case "vectorizable":
		ks = loops.ByClass(loops.Vectorizable)
	}
	return workloads.Scale(ks, s.Scale)
}

// pointTask is the simulation behind one point: a machine from spec
// over ts, wrapped in the best-effort extrapolation engine when the
// sweep asks for it or the workload has virtual windows to close.
func pointTask(spec machdef.Spec, ts []*trace.Trace, virtual map[string]int64, extrapolate bool) runner.Task {
	return runner.Task{Traces: ts, New: func() core.Machine {
		m, err := spec.New()
		if err != nil {
			panic(fmt.Sprintf("dse: point %s: %v", spec.Key(), err))
		}
		if extrapolate || len(virtual) > 0 {
			return core.Extrapolate(m).WithVirtual(virtual).BestEffort()
		}
		return m
	}}
}

// pointRate folds a point's per-loop results into its harmonic-mean
// issue rate. A non-positive rate would poison the mean, so it is an
// error naming the loop.
func pointRate(results []core.Result) (float64, error) {
	rs := make([]float64, 0, len(results))
	for _, res := range results {
		rate := res.IssueRate()
		if !(rate > 0) {
			return 0, fmt.Errorf("non-positive issue rate on %s", res.Trace)
		}
		rs = append(rs, rate)
	}
	return stats.HarmonicMean(rs), nil
}

// Planned is a sweep caught between planning and resolution: the
// deterministic front half of a run — expansion, pricing, pruning —
// has happened, and what remains is attaching a simulated rate to
// every point in Need. The in-process driver (Run) resolves them on
// the local worker pool; the cluster router resolves them by
// dispatching each point to the worker that owns its content key.
// Either way the same Finish assembles the same frontier, which is
// what makes a sharded sweep byte-comparable to a local one.
type Planned struct {
	Spec    SweepSpec // canonical
	Report  *Report
	Need    []int // indices of Report.Points that still need a rate
	Traces  []*trace.Trace
	Virtual map[string]int64 // virtual-window counts for extrapolation
}

// PlanSweep runs the deterministic front half of a sweep: expand the
// axes, price and model-predict every distinct machine, prune the
// dominated ones. No simulation happens; the returned plan's Need
// lists the surviving points awaiting rates.
func PlanSweep(sweep SweepSpec) (*Planned, error) {
	s, err := sweep.Canonicalize()
	if err != nil {
		return nil, err
	}
	specs, keys, expanded, invalid, err := s.expand()
	if err != nil {
		return nil, err
	}

	w := workloadFor(s)
	ts := w.Traces()
	workload := queuemodel.WorkloadOf(ts)

	r := &Report{
		SweepKey: s.Key(), Loops: s.Loops, Scale: s.Scale,
		Expanded: expanded, Invalid: invalid, Deduped: len(specs),
		Points: make([]Point, len(specs)),
		// w.Notes is the memo's, clipped: the appends below copy it.
		Notes: w.Notes,
	}
	// Price every machine across the cores, each into its own slot;
	// the notes follow in spec order, as one loop would write them.
	errs := make([]error, len(specs))
	runner.Each(0, len(specs), func(i int) {
		p := &r.Points[i]
		p.Spec = specs[i]
		p.Key = pointKey(s, keys[i])
		p.Cost = specs[i].Cost()
		est, err := queuemodel.Predict(specs[i], workload)
		if err != nil {
			// Never prune what the model cannot price.
			errs[i], p.Unpriced = err, true
			return
		}
		p.Model = est.Rate
	})
	for i, err := range errs {
		if err != nil {
			r.Notes = append(r.Notes, fmt.Sprintf("model: %s: %v", specs[i].Kind, err))
		}
	}

	if s.Prune != nil {
		prune(r.Points, *s.Prune)
		for i := range r.Points {
			if r.Points[i].Pruned {
				r.Pruned++
			}
		}
	}

	pl := &Planned{Spec: s, Report: r, Traces: ts, Virtual: w.Virtual}
	for i := range r.Points {
		if !r.Points[i].Pruned {
			pl.Need = append(pl.Need, i)
		}
	}
	return pl, nil
}

// Finish assembles the back half of the report — the Pareto frontier
// and the model-agreement cross-check — once every resolvable point
// carries a rate. It returns the finished report.
func (pl *Planned) Finish() *Report {
	frontier(pl.Report)
	modelStats(pl.Report)
	return pl.Report
}

// Run executes the sweep: expand, price, predict, prune, simulate,
// and assemble the frontier. The sweep is canonicalized first, so any
// parsed spec works. Invalid execution limits are refused before
// planning. Cancellation via ctx skips unstarted points; the partial
// report still assembles.
func Run(ctx context.Context, sweep SweepSpec, opt Options) (*Report, error) {
	ro := runner.Options{Parallel: opt.Parallel, Limits: opt.Limits}
	if err := ro.Validate(); err != nil {
		return nil, err
	}
	pl, err := PlanSweep(sweep)
	if err != nil {
		return nil, err
	}
	r := pl.Report

	// Partition the survivors against the journal, then fan the rest
	// out over the worker pool. Points whose machines are the same
	// machine share one run, and a machine with more unit copies may
	// take its family's (machdef.Spec.Family, runner.RunDistinct).
	var tasks []runner.Task
	var taskIdx []int
	for _, i := range pl.Need {
		p := &r.Points[i]
		if opt.Journal != nil {
			if rate, ok := opt.Journal.Lookup(p.Key); ok {
				p.Rate, p.FromJournal = rate, true
				r.FromJournal++
				continue
			}
		}
		tasks = append(tasks, pointTask(p.Spec, pl.Traces, pl.Virtual, pl.Spec.Extrapolate))
		taskIdx = append(taskIdx, i)
	}

	results, _, errs := runner.RunDistinct(ctx, ro, tasks, func(ti int) (machdef.Identity, [isa.NumUnits]int, bool) {
		return r.Points[taskIdx[ti]].Spec.Family()
	})
	failed := make(map[int]string)
	for _, e := range errs {
		i := taskIdx[e.Task]
		if _, dup := failed[i]; !dup {
			failed[i] = e.Error()
		}
	}
	for ti, cell := range results {
		i := taskIdx[ti]
		p := &r.Points[i]
		if msg, bad := failed[i]; bad {
			p.Err = msg
			r.Failed++
			continue
		}
		rate, err := pointRate(cell)
		if err != nil {
			p.Err = err.Error()
			r.Failed++
			continue
		}
		p.Rate = rate
		p.Simulated = true
		r.Simulated++
		if opt.Journal != nil {
			opt.Journal.Record(p.Key, p.Rate)
		}
	}

	return pl.Finish(), nil
}

// prune drops points the model says are dominated: sorted by cost
// ascending (model-rate descending within a cost), a point whose
// predicted rate is beaten by a factor of 1+Margin by some
// cheaper-or-equal point is pruned — the margin is the model error a
// near-frontier point is given the benefit of. An exact tie is
// pruned outright: the model predicts zero gain for strictly more
// hardware, typically because both points saturate the same
// bottleneck. A Keep floor restores the best-predicted pruned points
// if pruning bites too deep.
func prune(points []Point, p PruneSpec) {
	order := make([]int, len(points))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		pa, pb := &points[order[a]], &points[order[b]]
		if pa.Cost != pb.Cost {
			return pa.Cost < pb.Cost
		}
		if pa.Model != pb.Model {
			return pa.Model > pb.Model
		}
		return pa.Key < pb.Key
	})
	best := math.Inf(-1)
	survivors := 0
	for _, i := range order {
		pt := &points[i]
		if pt.Unpriced {
			survivors++ // never prune what the model could not price
			continue
		}
		if best >= pt.Model*(1+p.Margin) || best == pt.Model {
			pt.Pruned = true
		} else {
			survivors++
		}
		if pt.Model > best {
			best = pt.Model
		}
	}
	if survivors < p.Keep {
		// Restore the best-predicted pruned points up to the floor.
		var pruned []int
		for i := range points {
			if points[i].Pruned {
				pruned = append(pruned, i)
			}
		}
		sort.Slice(pruned, func(a, b int) bool {
			pa, pb := &points[pruned[a]], &points[pruned[b]]
			if pa.Model != pb.Model {
				return pa.Model > pb.Model
			}
			return pa.Key < pb.Key
		})
		for _, i := range pruned {
			if survivors >= p.Keep {
				break
			}
			points[i].Pruned = false
			survivors++
		}
	}
}

// frontier marks the Pareto-optimal rated points: maximal simulated
// rate at their cost. FrontierIdx lists them cost-ascending.
func frontier(r *Report) {
	var rated []int
	for i := range r.Points {
		if r.Points[i].Rate > 0 {
			rated = append(rated, i)
		}
	}
	sort.Slice(rated, func(a, b int) bool {
		pa, pb := &r.Points[rated[a]], &r.Points[rated[b]]
		if pa.Cost != pb.Cost {
			return pa.Cost < pb.Cost
		}
		if pa.Rate != pb.Rate {
			return pa.Rate > pb.Rate
		}
		return pa.Key < pb.Key
	})
	best := 0.0
	for _, i := range rated {
		if r.Points[i].Rate > best {
			best = r.Points[i].Rate
			r.Points[i].Frontier = true
			r.FrontierIdx = append(r.FrontierIdx, i)
		}
	}
}

// modelStats fills in the model-vs-simulation calibration numbers.
func modelStats(r *Report) {
	var absErr float64
	var rated int
	for i := range r.Points {
		p := &r.Points[i]
		if p.Rate > 0 && !p.Unpriced {
			absErr += math.Abs(p.Model-p.Rate) / p.Rate
			rated++
		}
	}
	if rated > 0 {
		r.Model.MeanAbsRelErr = absErr / float64(rated)
	}
	f := r.FrontierIdx
	agree := 0
	for a := 0; a < len(f); a++ {
		for b := a + 1; b < len(f); b++ {
			pa, pb := &r.Points[f[a]], &r.Points[f[b]]
			if pa.Unpriced || pb.Unpriced {
				continue
			}
			r.Model.Pairs++
			// Frontier rates strictly increase with cost, so agreement
			// means the model orders the pair the same way (ties count
			// for the model: it never contradicts the simulation).
			if (pa.Rate-pb.Rate)*(pa.Model-pb.Model) >= 0 {
				agree++
			}
		}
	}
	if r.Model.Pairs > 0 {
		r.Model.FrontierAgreement = float64(agree) / float64(r.Model.Pairs)
	}
}
