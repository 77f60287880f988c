package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"time"

	"mfup/internal/core"
	"mfup/internal/dse"
	"mfup/internal/loops"
	"mfup/internal/queuemodel"
	"mfup/internal/runner"
	"mfup/internal/stats"
)

// The SHA-256 of the cold report and of every warm re-run report of
// the sweep below, as the repository produced them when this
// benchmark was defined.
const (
	sweepColdDigest = "6e8777c92fe0c8679463217af866528100a0e891ed92ffe9cf16f288c353ed95"
	sweepWarmDigest = "d0fd4212579d059763b98bec5b164cb9d5caa1caed6661da244d5f9794939898"
)

const (
	warmPerCold    = 4  // warm re-runs after each cold sweep
	setupsPerRound = 3  // set-ups timed per round: each is well under a millisecond
	extrapSample   = 32 // simulated points the traced run replays under the extrapolator
)

// sweepAxes is the "Design-space sweep" grid of EXPERIMENTS.md: 1728
// points. Each run lists every axis's values in a seeded order;
// canonicalization sorts them, so the report must not change.
var sweepAxes = []struct {
	name string
	vals []any
}{
	{"kind", []any{"multi", "ooo", "ruu"}},
	{"width", []any{1, 2, 3, 4, 6, 8}},
	{"bus", []any{"nbus", "1bus"}},
	{"mem", []any{5, 11, 20}},
	{"br", []any{2, 5}},
	{"membanks", []any{0, 4}},
	{"fucount.FloatMul", []any{1, 2}},
	{"ruu", []any{25, 50}},
}

// sweepDoc writes the sweep document with each axis in a seeded order.
func sweepDoc(rng *rand.Rand) ([]byte, error) {
	axes := map[string][]any{}
	for _, a := range sweepAxes {
		v := append([]any(nil), a.vals...)
		rng.Shuffle(len(v), func(i, j int) { v[i], v[j] = v[j], v[i] })
		axes[a.name] = v
	}
	return json.Marshal(map[string]any{
		"base":        map[string]any{"kind": "ooo", "mem": 11, "br": 5},
		"axes":        axes,
		"scale":       100000,
		"extrapolate": true,
		"prune":       map[string]any{"margin": 0.15, "keep": 32},
		"maxpoints":   10000,
	})
}

// sweepRun is one run of the sweep workload.
type sweepRun struct {
	cfg   *config
	doc   []byte
	spec  dse.SweepSpec
	setup samples
	dir   string
	out   *outcome
	op    int64
	reps  int

	// What the traced sweeps saw, for the per-layer metrics.
	coldPools    samples
	coldStats    []runner.TaskStat
	coldReport   *dse.Report
	journalLoads samples

	rss   *rssPeak
	peaks []float64 // resident peak of each cold sweep, MB
}

// runSweep runs the cold sweep into a fresh point journal, then warm
// re-runs that reopen it and simulate nothing, until the run's time
// is nearly spent.
func runSweep(cfg *config) (*outcome, error) {
	doc, err := sweepDoc(rand.New(rand.NewSource(cfg.seed)))
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.outDir, "sweep-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	sw := &sweepRun{cfg: cfg, doc: doc, dir: dir, out: &outcome{layers: newLayers()}, rss: startRSS()}
	defer sw.rss.close()

	if err := sw.setupOnce(nil); err != nil {
		return nil, err
	}

	budget := cfg.seconds * 9 / 10
	var cold, warm, tracedCold samples
	if cfg.tr == nil {
		cold, warm, err = sw.repeat(budget, 3, nil)
	} else {
		cold, warm, err = sw.repeat(budget*2/5, 1, nil)
		if err == nil {
			tracedCold, _, err = sw.repeat(budget*2/5, 1, cfg.tr)
		}
	}
	if err != nil {
		return nil, err
	}
	out := sw.out
	// A run holds too few cold sweeps for a tail beyond the median, so
	// the tail is the warm re-runs'.
	tail, pct := warm.tail()
	out.e2e = e2eMetrics(sw.setup.median(), cold.median(), tail, warm.median(), medianFloat(sw.peaks))
	out.note("sweep_cold_s", cold.median().Seconds(), "s")
	out.note("sweep_warm_s", warm.median().Seconds(), "s")
	out.note("warm_tail_pct", pct, "%")
	out.note("cold_sweeps", float64(len(cold)), "count")
	out.note("warm_reruns", float64(len(warm)), "count")
	if cfg.tr != nil {
		out.layers["bench.trace_overhead_ms"] = ms(tracedCold.median() - cold.median())
		if err := sw.layers(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (sw *sweepRun) next() int64 { sw.op++; return sw.op }

// repeat works in rounds for d, and at least minRounds. A round runs a
// cold sweep into a fresh point journal, re-runs it warm warmPerCold
// times, and repeats the set-up setupsPerRound times; interleaving
// them puts a slow stretch of the host on all three readings alike.
func (sw *sweepRun) repeat(d time.Duration, minRounds int, tr *Tracer) (cold, warm samples, err error) {
	for end := time.Now().Add(d); len(cold) < minRounds || time.Now().Before(end); {
		sw.reps++
		path := filepath.Join(sw.dir, fmt.Sprintf("points%d.jsonl", sw.reps))
		t, err := sw.once(tr, "cold", path, sweepColdDigest)
		if err != nil {
			return nil, nil, err
		}
		cold = append(cold, t)
		for i := 0; i < warmPerCold; i++ {
			t, err := sw.once(tr, "warm", path, sweepWarmDigest)
			if err != nil {
				return nil, nil, err
			}
			warm = append(warm, t)
		}
		for i := 0; i < setupsPerRound; i++ {
			if err := sw.setupOnce(tr); err != nil {
				return nil, nil, err
			}
		}
	}
	return cold, warm, nil
}

// setupOnce times one set-up: parse the sweep document and create a
// point journal.
func (sw *sweepRun) setupOnce(tr *Tracer) error {
	op := sw.next()
	debug.FreeOSMemory()
	t0 := time.Now()
	sp := tr.Start("dse.Parse", 0, op)
	spec, err := dse.Parse(sw.doc)
	sp.End()
	if err != nil {
		return err
	}
	sw.spec = spec
	sp = tr.Start("dse.OpenJournal", 0, op)
	j, err := dse.OpenJournal(filepath.Join(sw.dir, fmt.Sprintf("setup%d.jsonl", op)))
	sp.End()
	sw.setup = append(sw.setup, time.Since(t0))
	if err != nil {
		return err
	}
	return j.Close() // a sync of an empty file: not set-up work
}

// once opens the point journal at path, runs the sweep against it,
// closes the journal, and checks the report.
func (sw *sweepRun) once(tr *Tracer, kind, path, want string) (time.Duration, error) {
	op := sw.next()
	debug.FreeOSMemory()
	sw.rss.window()
	root := tr.Start("sweep."+kind, 0, op)
	t0 := time.Now()
	sp := tr.Start("dse.OpenJournal", root.id, op)
	j, err := dse.OpenJournal(path)
	load := sp.End()
	if err != nil {
		return 0, err
	}
	var rep *dse.Report
	if tr == nil {
		rep, err = dse.Run(context.Background(), sw.spec, dse.Options{Parallel: sw.cfg.workers, Journal: j})
	} else {
		rep, err = sw.runTraced(tr, root.id, op, j, kind == "cold")
	}
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	d := time.Since(t0)
	root.End()
	if kind == "cold" {
		sw.peaks = append(sw.peaks, sw.rss.window())
	}
	if err != nil {
		return 0, err
	}
	if tr != nil && kind == "warm" {
		sw.journalLoads = append(sw.journalLoads, load)
	}

	out := sw.out
	out.attempted++
	b, err := rep.JSON()
	switch {
	case err != nil:
		out.fail("%s sweep: %v", kind, err)
	case rep.Failed > 0:
		out.fail("%s sweep: %d failed points", kind, rep.Failed)
	case kind == "warm" && rep.Simulated != 0:
		out.fail("warm re-run simulated %d points, want 0", rep.Simulated)
	case digest(b) != want:
		out.fail("%s sweep report digest %s, want %s", kind, digest(b), want)
	}
	return d, nil
}

// runTraced is dse.Run spelled out through dse's public pieces
// (PlanSweep, the journal, the runner pool, Planned.Finish) with a
// span around each, so that a traced run times planning, simulation,
// journal writes and finishing apart. The report digest check holds
// it to dse.Run's bytes.
func (sw *sweepRun) runTraced(tr *Tracer, parent, op int64, j *dse.Journal, cold bool) (*dse.Report, error) {
	sp := tr.Start("dse.PlanSweep", parent, op)
	pl, err := dse.PlanSweep(sw.spec)
	sp.End()
	if err != nil {
		return nil, err
	}
	r := pl.Report

	sp = tr.Start("Journal.Lookup", parent, op)
	var need []int
	for _, i := range pl.Need {
		p := &r.Points[i]
		if rate, ok := j.Lookup(p.Key); ok {
			p.Rate, p.FromJournal = rate, true
			r.FromJournal++
			continue
		}
		need = append(need, i)
	}
	sp.End()

	pool := tr.Start("runner.RunCheckedStats", parent, op)
	tasks := make([]runner.Task, len(need))
	for ti, i := range need {
		spec := r.Points[i].Spec
		tasks[ti] = runner.Task{Traces: pl.Traces, New: func() core.Machine {
			// Timed outside the extrapolator, never between it and its machine.
			sp := tr.Start("Task.New", pool.id, op)
			defer sp.End()
			m, err := spec.New()
			if err != nil {
				panic(fmt.Sprintf("point %s: %v", spec.Key(), err))
			}
			if pl.Spec.Extrapolate {
				return core.Extrapolate(m).WithVirtual(pl.Virtual).BestEffort()
			}
			return m
		}}
	}
	results, taskStats, errs := runner.RunCheckedStats(context.Background(), runner.Options{Parallel: sw.cfg.workers}, tasks)
	wall := pool.End()
	if cold {
		sw.coldPools = append(sw.coldPools, wall)
		sw.coldStats = taskStats
	}

	failed := map[int]string{}
	for _, e := range errs {
		if i := need[e.Task]; failed[i] == "" {
			failed[i] = e.Error()
		}
	}
	for ti, cell := range results {
		i := need[ti]
		p := &r.Points[i]
		if msg := failed[i]; msg != "" {
			p.Err = msg
			r.Failed++
			continue
		}
		rates := make([]float64, 0, len(cell))
		for _, res := range cell {
			rate := res.IssueRate()
			if !(rate > 0) {
				p.Err = fmt.Sprintf("non-positive issue rate on %s", res.Trace)
				break
			}
			rates = append(rates, rate)
		}
		if p.Err != "" {
			r.Failed++
			continue
		}
		p.Rate, p.Simulated = stats.HarmonicMean(rates), true
		r.Simulated++
		rec := tr.Start("Journal.Record", parent, op)
		j.Record(p.Key, p.Rate)
		rec.End()
	}

	sp = tr.Start("Planned.Finish", parent, op)
	rep := pl.Finish()
	sp.End()
	if cold {
		sw.coldReport = rep
	}
	return rep, nil
}

// layers fills the per-layer metrics of a traced sweep run: the dse
// phases and the runner pool from the traced sweeps, and the layers
// dse reaches only internally (kernel builds, decoding, pricing, the
// extrapolator and the machines it falls back to) from direct replays
// on a fresh plan of the same sweep.
func (sw *sweepRun) layers() error {
	vals, tr, op := sw.out.layers, sw.cfg.tr, sw.next()
	spans := tr.Spans()
	vals["dse.plan_ms"] = ms(byName(spans, "dse.PlanSweep").median())
	vals["dse.finish_ms"] = ms(byName(spans, "Planned.Finish").median())
	vals["dse.simulate_ms"] = ms(sw.coldPools.median())
	vals["dse.journal_load_ms"] = ms(sw.journalLoads.median())
	if rec := byName(spans, "Journal.Record"); len(rec) > 0 {
		vals["dse.journal_record_us"] = us(rec.total()) / float64(len(rec))
	}
	rep := sw.coldReport
	vals["dse.pruned_ratio"] = float64(rep.Pruned) / float64(rep.Deduped)
	vals["dse.simulated_points"] = float64(rep.Simulated)
	poolStats(sw.coldStats, sw.coldPools[len(sw.coldPools)-1], sw.cfg.workers, vals)

	pl, err := dse.PlanSweep(sw.spec)
	if err != nil {
		return err
	}
	var numbers []int
	for _, k := range loops.All() {
		if pl.Spec.Loops == "all" || strings.EqualFold(k.Class.String(), pl.Spec.Loops) {
			numbers = append(numbers, k.Number)
		}
	}
	var bt buildTally
	if err := replayBuilds(tr, op, numbers, pl.Spec.Scale, pl.Spec.Extrapolate, &bt); err != nil {
		return err
	}
	bt.report(1, vals)

	specs, _, _, err := pl.Spec.Expand()
	if err != nil {
		return err
	}
	replayModel(tr, op, specs, queuemodel.WorkloadOf(pl.Traces), vals)

	// A seeded sample of the simulated points, each over every trace.
	var jobs []machineJob
	for _, i := range pl.Need {
		jobs = append(jobs, machineJob{pl.Report.Points[i].Spec, pl.Traces})
	}
	rng := rand.New(rand.NewSource(sw.cfg.seed))
	rng.Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
	fell, err := replayExtrap(tr, op, jobs[:min(extrapSample, len(jobs))], pl.Virtual, true, vals)
	if err != nil {
		return err
	}
	// Every simulated point runs every trace under the extrapolator.
	vals["extrap.runs"] = float64(rep.Simulated * len(pl.Traces))
	return replayMachines(tr, op, fell, 1, vals)
}
