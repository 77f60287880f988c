package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"mfup/internal/core"
	"mfup/internal/limits"
	"mfup/internal/loops"
	"mfup/internal/machdef"
	"mfup/internal/queuemodel"
	"mfup/internal/runner"
	"mfup/internal/trace"
)

// layerSpec is one per-layer metric as BENCHMARK.json declares it.
type layerSpec struct{ name, unit, better string }

// perLayer lists every per-layer metric in BENCHMARK.json order. Every
// traced run reports all of them; a layer that does no work on a
// workload reads 0 there.
var perLayer = func() []layerSpec {
	l := []layerSpec{
		{"loops.builds", "count", "lower"},
		{"loops.build_ms", "ms", "lower"},
		{"trace.prepare_ns_per_op", "ns", "lower"},
		{"trace.period_ms", "ms", "lower"},
	}
	for _, k := range machdef.Kinds() {
		l = append(l, layerSpec{"core." + k + ".ns_per_instr", "ns", "lower"})
	}
	return append(l, []layerSpec{
		{"core.instrs", "count", "lower"},
		{"core.alloc_bytes_per_instr", "B", "lower"},
		{"extrap.runs", "count", "lower"},
		{"extrap.engaged_ratio", "ratio", "higher"},
		{"extrap.ladder_ops", "count", "lower"},
		{"extrap.fallback_ops", "count", "lower"},
		{"extrap.ms_per_run", "ms", "lower"},
		{"limits.ns_per_instr", "ns", "lower"},
		{"runner.busy_ratio", "ratio", "higher"},
		{"runner.straggler_ms", "ms", "lower"},
		{"runner.tasks", "count", "lower"},
		{"tables.t1_ms", "ms", "lower"},
		{"tables.t2_ms", "ms", "lower"},
		{"tables.t3_ms", "ms", "lower"},
		{"tables.t4_ms", "ms", "lower"},
		{"tables.t5_ms", "ms", "lower"},
		{"tables.t6_ms", "ms", "lower"},
		{"tables.t7_ms", "ms", "lower"},
		{"tables.t8_ms", "ms", "lower"},
		{"tables.s33_ms", "ms", "lower"},
		{"tables.ckpt_load_ms", "ms", "lower"},
		{"machdef.canon_key_us", "us", "lower"},
		{"queuemodel.predict_us", "us", "lower"},
		{"dse.plan_ms", "ms", "lower"},
		{"dse.simulate_ms", "ms", "lower"},
		{"dse.finish_ms", "ms", "lower"},
		{"dse.pruned_ratio", "ratio", "higher"},
		{"dse.simulated_points", "count", "lower"},
		{"dse.journal_load_ms", "ms", "lower"},
		{"dse.journal_record_us", "us", "lower"},
		{"serve.hit_ms", "ms", "lower"},
		{"serve.cold_ms", "ms", "lower"},
		{"serve.point_ms", "ms", "lower"},
		{"serve.cold_wait_ms", "ms", "lower"},
		{"serve.canon_key_us", "us", "lower"},
		{"serve.cache_put_us", "us", "lower"},
		{"serve.hit_ratio", "ratio", "higher"},
		{"serve.admitted", "count", "lower"},
		{"serve.deduped", "count", "higher"},
		{"serve.shed", "count", "lower"},
		{"serve.failed", "count", "lower"},
		{"serve.cache_saved", "count", "lower"},
		{"cluster.hop_ms", "ms", "lower"},
		{"cluster.sweep_overhead_ratio", "ratio", "lower"},
		{"cluster.forwarded", "count", "lower"},
		{"cluster.hedges", "count", "lower"},
		{"cluster.hedge_wins", "count", "lower"},
		{"cluster.failovers", "count", "lower"},
		{"load.late_p50_ms", "ms", "lower"},
		{"load.late_p99_ms", "ms", "lower"},
		{"load.achieved_rps", "1/s", "higher"},
		{"load.backlog", "count", "lower"},
		{"bench.trace_overhead_ms", "ms", "lower"},
	}...)
}()

func newLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, l := range perLayer {
		m[l.name] = 0
	}
	return m
}

func layerMetrics(vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(perLayer))
	for _, l := range perLayer {
		out[l.name] = metric{vals[l.name], l.unit}
	}
	return out
}

// writeTraceReport writes a traced run's spans and its per-layer table
// (span totals and self times, then every per-layer metric) next to
// each other in the output directory, and prints the table.
func writeTraceReport(cfg *config, wl string, vals map[string]float64, w io.Writer) error {
	spans := cfg.tr.Spans()
	base := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d", wl, cfg.seed))
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".spans.json", b, 0o644); err != nil {
		return err
	}
	var r strings.Builder
	fmt.Fprintf(&r, "== %s traced (seed %d): %d spans in %s.spans.json ==\n", wl, cfg.seed, len(spans), base)
	fmt.Fprintf(&r, "  %-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, row := range layerTable(spans) {
		fmt.Fprintf(&r, "  %-28s %8d %12.3f %12.3f\n", row.Name, row.Count, ms(row.Total), ms(row.Self))
	}
	for _, l := range perLayer {
		fmt.Fprintf(&r, "  %-30s %14.4f %s\n", l.name, vals[l.name], l.unit)
	}
	if err := os.WriteFile(base+".layers.txt", []byte(r.String()), 0o644); err != nil {
		return err
	}
	_, err = io.WriteString(w, r.String())
	return err
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// mustNew is a runner constructor for a definition known to be valid;
// the runner turns a panic into the task's error.
func mustNew(s machdef.Spec) func() core.Machine {
	return func() core.Machine {
		c, err := machdef.Canonicalize(s)
		if err != nil {
			panic(err)
		}
		m, err := c.New()
		if err != nil {
			panic(err)
		}
		return m
	}
}

// machineJob is one canonical machine definition over the traces it
// runs.
type machineJob struct {
	spec   machdef.Spec
	traces []*trace.Trace
}

// replayMachines runs each job's bare machine directly, one
// Machine.RunChecked span per trace, and fills core.KIND.ns_per_instr
// (the median over reps passes), core.instrs (one pass) and
// core.alloc_bytes_per_instr.
func replayMachines(tr *Tracer, op int64, jobs []machineJob, reps int, vals map[string]float64) error {
	perKind := map[string][]float64{}
	var instrs int64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for rep := 0; rep < reps; rep++ {
		spent := map[string]time.Duration{}
		count := map[string]int64{}
		for _, j := range jobs {
			m, err := j.spec.New()
			if err != nil {
				return err
			}
			for _, t := range j.traces {
				sp := tr.Start("Machine.RunChecked", 0, op)
				r, err := m.RunChecked(t, core.Limits{})
				spent[j.spec.Kind] += sp.End()
				if err != nil {
					return err
				}
				count[j.spec.Kind] += r.Instructions
			}
		}
		for k, d := range spent {
			if count[k] > 0 {
				perKind[k] = append(perKind[k], float64(d.Nanoseconds())/float64(count[k]))
			}
			if rep == 0 {
				instrs += count[k]
			}
		}
	}
	runtime.ReadMemStats(&m1)
	for k, xs := range perKind {
		vals["core."+k+".ns_per_instr"] = medianFloat(xs)
	}
	vals["core.instrs"] = float64(instrs)
	if instrs > 0 {
		vals["core.alloc_bytes_per_instr"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(instrs*int64(reps))
	}
	return nil
}

// replayExtrap runs each job's machine under the extrapolation engine
// (the engine outside, the bare machine inside: it reads its machine's
// configuration, so nothing may sit between them) on every trace, one
// Extrapolator.RunChecked span per run. It fills extrap.engaged_ratio,
// extrap.ladder_ops (reference ops simulated per engaged run),
// extrap.fallback_ops (instructions simulated per fallback run) and
// extrap.ms_per_run, and returns the runs that fell back.
func replayExtrap(tr *Tracer, op int64, jobs []machineJob, virtual map[string]int64, bestEffort bool, vals map[string]float64) ([]machineJob, error) {
	var runs, engaged int
	var ladder, fallback int64
	var spent time.Duration
	var fell []machineJob
	for _, j := range jobs {
		m, err := j.spec.New()
		if err != nil {
			return nil, err
		}
		e := core.Extrapolate(m).WithVirtual(virtual)
		if bestEffort {
			e = e.BestEffort()
		}
		back := machineJob{spec: j.spec}
		for _, t := range j.traces {
			sp := tr.Start("Extrapolator.RunChecked", 0, op)
			r, err := e.RunChecked(t, core.Limits{})
			spent += sp.End()
			if err != nil {
				return nil, err
			}
			runs++
			if st := e.Stats(); st.Engaged {
				engaged++
				ladder += st.SimulatedOps
			} else {
				fallback += r.Instructions
				back.traces = append(back.traces, t)
			}
		}
		if len(back.traces) > 0 {
			fell = append(fell, back)
		}
	}
	if runs > 0 {
		vals["extrap.engaged_ratio"] = float64(engaged) / float64(runs)
		vals["extrap.ms_per_run"] = ms(spent) / float64(runs)
	}
	if engaged > 0 {
		vals["extrap.ladder_ops"] = float64(ladder) / float64(engaged)
	}
	if n := runs - engaged; n > 0 {
		vals["extrap.fallback_ops"] = float64(fallback) / float64(n)
	}
	return fell, nil
}

// replayLimits recomputes Table 2's limits (both buffering modes, all
// four machine variations) on traces and returns ns per instruction.
func replayLimits(tr *Tracer, op int64, traces []*trace.Trace) float64 {
	var spent time.Duration
	var n int64
	for _, t := range traces {
		for _, cfg := range core.BaseConfigs() {
			for _, mode := range []limits.Mode{limits.Pure, limits.Serial} {
				sp := tr.Start("limits.Compute", 0, op)
				limits.Compute(t, cfg.Latencies(), mode)
				spent += sp.End()
				n += int64(t.Len())
			}
		}
	}
	return float64(spent.Nanoseconds()) / float64(n)
}

// replayRunner runs tasks on the runner pool with timing-wrapped
// constructors and fills the runner metrics.
func replayRunner(ctx context.Context, tr *Tracer, op int64, workers int, tasks []runner.Task, vals map[string]float64) error {
	pool := tr.Start("runner.RunCheckedStats", 0, op)
	for i := range tasks {
		mk := tasks[i].New
		tasks[i].New = func() core.Machine {
			sp := tr.Start("Task.New", pool.id, op)
			defer sp.End()
			return mk()
		}
	}
	_, stats, errs := runner.RunCheckedStats(ctx, runner.Options{Parallel: workers}, tasks)
	wall := pool.End()
	if len(errs) > 0 {
		return errs[0]
	}
	poolStats(stats, wall, workers, vals)
	return nil
}

// poolStats fills runner.busy_ratio (summed task wall time over
// workers x pool wall time), runner.straggler_ms (the slowest task,
// below which no pool can finish) and runner.tasks.
func poolStats(stats []runner.TaskStat, wall time.Duration, workers int, vals map[string]float64) {
	var busy, slowest time.Duration
	for _, s := range stats {
		busy += s.Wall
		slowest = max(slowest, s.Wall)
	}
	if wall > 0 {
		vals["runner.busy_ratio"] = float64(busy) / (float64(workers) * float64(wall))
	}
	vals["runner.straggler_ms"] = ms(slowest)
	vals["runner.tasks"] = float64(len(stats))
}

// buildTally sums what replayBuilds saw.
type buildTally struct {
	builds                 int
	build, prepare, period time.Duration
	ops                    int64
}

// replayBuilds repeats the kernel resolution a scaled plan or job
// performs for each kernel number: loops.ForScale, the new kernel's
// first trace (emulation and validation), its decode and period
// detection, and, past the materializable length with extrapolation
// on, loops.VirtualWindows (one shorter build).
func replayBuilds(tr *Tracer, op int64, numbers []int, scale int, extrapolate bool, t *buildTally) error {
	for _, n := range numbers {
		sp := tr.Start("loops.ForScale", 0, op)
		k, extra, err := loops.ForScale(n, scale)
		t.build += sp.End()
		if err != nil {
			return err
		}
		t.builds++
		sp = tr.Start("Kernel.SharedTrace", 0, op)
		kt := k.SharedTrace()
		t.build += sp.End()
		sp = tr.Start("trace.Prepare", 0, op)
		p := kt.Prepared()
		t.prepare += sp.End()
		t.ops += int64(kt.Len())
		sp = tr.Start("Prepared.Period", 0, op)
		p.Period()
		t.period += sp.End()
		if extra > 0 && extrapolate && core.CanExtrapolate(kt) == nil {
			sp = tr.Start("loops.VirtualWindows", 0, op)
			_, err := loops.VirtualWindows(k, extra)
			t.build += sp.End()
			if err != nil {
				return err
			}
			t.builds++
		}
	}
	return nil
}

// report fills the loops and trace metrics per operation, over ops
// operations.
func (t buildTally) report(ops int, vals map[string]float64) {
	if ops == 0 {
		return
	}
	n := float64(ops)
	vals["loops.builds"] = float64(t.builds) / n
	vals["loops.build_ms"] = ms(t.build) / n
	if t.ops > 0 {
		vals["trace.prepare_ns_per_op"] = float64(t.prepare.Nanoseconds()) / float64(t.ops)
	}
	vals["trace.period_ms"] = ms(t.period) / n
}

// replayModel prices definitions the way PlanSweep does and fills
// machdef.canon_key_us (Canonicalize plus Key) and
// queuemodel.predict_us, each per definition.
func replayModel(tr *Tracer, op int64, specs []machdef.Spec, w queuemodel.Workload, vals map[string]float64) {
	if len(specs) == 0 {
		return
	}
	var canon, pred time.Duration
	for _, s := range specs {
		sp := tr.Start("machdef.Canonicalize", 0, op)
		c, err := machdef.Canonicalize(s)
		if err == nil {
			c.Key()
		}
		canon += sp.End()
		sp = tr.Start("queuemodel.Predict", 0, op)
		queuemodel.Predict(c, w)
		pred += sp.End()
	}
	n := float64(len(specs))
	vals["machdef.canon_key_us"] = us(canon) / n
	vals["queuemodel.predict_us"] = us(pred) / n
}
