package main

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"time"

	"mfup/internal/core"
	"mfup/internal/loops"
	"mfup/internal/machdef"
	"mfup/internal/runner"
	"mfup/internal/tables"
	"mfup/internal/trace"
)

// tablesDigest is the SHA-256 of Tables 1-8 and the section 3.3
// supplement rendered in paper order at paper lengths, as the
// repository produced them when this benchmark was defined. Any
// changed byte fails the tables output check.
const tablesDigest = "85bb1100ce995d5ebde68083220315df38752ce25c8a861c38acf6bde08a3361"

// tableGen is one table generator with its span and per-layer metric.
type tableGen struct {
	span, metric string
	build        func() *tables.Table
}

var tableGens = []tableGen{
	{"Table1", "tables.t1_ms", tables.Table1},
	{"Table2", "tables.t2_ms", tables.Table2},
	{"Table3", "tables.t3_ms", tables.Table3},
	{"Table4", "tables.t4_ms", tables.Table4},
	{"Table5", "tables.t5_ms", tables.Table5},
	{"Table6", "tables.t6_ms", tables.Table6},
	{"Table7", "tables.t7_ms", tables.Table7},
	{"Table8", "tables.t8_ms", tables.Table8},
	{"SectionThreeThree", "tables.s33_ms", tables.SectionThreeThree},
}

// tablesMachines is one definition per machine kind the tables
// simulate (at M11BR5), for the machine replay.
var tablesMachines = []machdef.Spec{
	{Kind: "simple"}, {Kind: "serialmem"}, {Kind: "nonseg"}, {Kind: "cray"},
	{Kind: "scoreboard"}, {Kind: "tomasulo"},
	{Kind: "multi", Width: 4}, {Kind: "ooo", Width: 4}, {Kind: "ruu", Width: 4},
}

// regenerate builds every table once, in the given order, and returns
// the digest of their renderings in paper order and the number of
// failed (ERR) cells.
func regenerate(tr *Tracer, parent, op int64, order []int) (string, int) {
	built := make([]*tables.Table, len(tableGens))
	for _, i := range order {
		sp := tr.Start(tableGens[i].span, parent, op)
		built[i] = tableGens[i].build()
		sp.End()
	}
	var b strings.Builder
	errCells := 0
	for _, t := range built {
		b.WriteString(t.Render())
		errCells += len(t.Errors)
	}
	return digest([]byte(b.String())), errCells
}

// materialize is the tables set-up: emulate, validate and decode every
// kernel at its paper length, as a fresh process does before its first
// table.
func materialize(tr *Tracer, op int64) error {
	for _, k := range loops.All() {
		sp := tr.Start("Kernel.Trace", 0, op)
		t, err := k.Trace()
		sp.End()
		if err != nil {
			return err
		}
		sp = tr.Start("trace.Prepare", 0, op)
		p := trace.Prepare(t)
		sp.End()
		sp = tr.Start("Prepared.Period", 0, op)
		p.Period()
		sp.End()
	}
	return nil
}

// tablesRun is one run of the tables workload.
type tablesRun struct {
	cfg     *config
	rng     *rand.Rand
	out     *outcome
	op      int64
	ckpt    string // a complete checkpoint journal
	sig     string
	samples struct{ setup, regen, resume samples }
	rss     *rssPeak
	peaks   []float64 // resident peak of each measured regeneration, MB
}

// runTables works in rounds until the run's time is nearly spent. A
// round regenerates every table (nproc runner workers, extrapolation
// off), resumes every table from a complete checkpoint journal, and
// repeats the set-up, each timed; interleaving them puts a slow
// stretch of the host on all three readings alike.
func runTables(cfg *config) (*outcome, error) {
	tables.SetParallel(cfg.workers)
	tables.SetExtrapolate(false)
	tables.SetScale(0)
	dir, err := os.MkdirTemp(cfg.outDir, "tables-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	t := &tablesRun{
		cfg: cfg, rng: rand.New(rand.NewSource(cfg.seed)), out: &outcome{layers: newLayers()},
		ckpt: filepath.Join(dir, "checkpoint.jsonl"), sig: tables.JournalSignature(),
		rss: startRSS(),
	}
	defer t.rss.close()
	if err := t.setup(nil); err != nil {
		return nil, err
	}
	for _, k := range loops.All() {
		k.SharedTrace().Prepared().Period() // the copies the tables share
	}
	c, err := tables.OpenCheckpoint(t.ckpt, t.sig)
	if err != nil {
		return nil, err
	}
	tables.SetCheckpoint(c)
	sum, errCells := regenerate(nil, 0, 0, t.rng.Perm(len(tableGens)))
	t.check("checkpoint fill", sum, errCells)
	tables.SetCheckpoint(nil)
	if err := c.Close(); err != nil {
		return nil, err
	}

	// A traced run spends part of its time untraced and part traced, so
	// that it can report what tracing costs.
	budget := cfg.seconds * 9 / 10
	if cfg.tr == nil {
		err = t.rounds(budget, nil)
	} else if err = t.rounds(budget*2/5, nil); err == nil {
		plain, peaks := t.samples.regen, t.peaks
		t.samples.regen = nil
		if err = t.rounds(budget*2/5, cfg.tr); err == nil {
			t.out.layers["bench.trace_overhead_ms"] = ms(t.samples.regen.median() - plain.median())
			t.samples.regen, t.peaks = plain, peaks
			err = tablesLayers(cfg, t.next(), t.out.layers)
		}
	}
	if err != nil {
		return nil, err
	}

	out, sm := t.out, &t.samples
	tail, pct := sm.regen.tail()
	out.e2e = e2eMetrics(sm.setup.median(), sm.regen.median(), tail, sm.resume.median(), medianFloat(t.peaks))
	out.note("regen_p50_s", sm.regen.median().Seconds(), "s")
	out.note("regen_tail_s", tail.Seconds(), "s")
	out.note("regen_tail_pct", pct, "%")
	out.note("regenerations", float64(len(sm.regen)), "count")
	out.note("resume_s", sm.resume.median().Seconds(), "s")
	return out, nil
}

func (t *tablesRun) next() int64 { t.op++; return t.op }

func (t *tablesRun) check(what string, sum string, errCells int) {
	t.out.attempted++
	switch {
	case errCells > 0:
		t.out.fail("%s: %d ERR cells", what, errCells)
	case sum != tablesDigest:
		t.out.fail("%s: rendered digest %s, want %s", what, sum, tablesDigest)
	}
}

// setup times one set-up: trace materialization.
func (t *tablesRun) setup(tr *Tracer) error {
	debug.FreeOSMemory()
	t0 := time.Now()
	err := materialize(tr, t.next())
	t.samples.setup = append(t.samples.setup, time.Since(t0))
	return err
}

// rounds runs rounds for d, and at least three.
func (t *tablesRun) rounds(d time.Duration, tr *Tracer) error {
	for end, n := time.Now().Add(d), 0; n < 3 || time.Now().Before(end); n++ {
		id := t.next()
		order := t.rng.Perm(len(tableGens))
		debug.FreeOSMemory()
		t.rss.window()
		root := tr.Start("regenerate", 0, id)
		t0 := time.Now()
		sum, errCells := regenerate(tr, root.id, id, order)
		t.samples.regen = append(t.samples.regen, time.Since(t0))
		root.End()
		t.peaks = append(t.peaks, t.rss.window())
		t.check("regeneration", sum, errCells)
		if err := t.resume(tr); err != nil {
			return err
		}
		if err := t.setup(tr); err != nil {
			return err
		}
	}
	return nil
}

// resume times one regeneration that reopens the complete checkpoint
// journal: every simulated cell comes from the journal, Table 2
// (analytic) is recomputed, and nothing new may be journaled.
func (t *tablesRun) resume(tr *Tracer) error {
	id := t.next()
	order := t.rng.Perm(len(tableGens))
	debug.FreeOSMemory()
	root := tr.Start("resume", 0, id)
	t0 := time.Now()
	sp := tr.Start("tables.OpenCheckpoint", root.id, id)
	c, err := tables.OpenCheckpoint(t.ckpt, t.sig)
	sp.End()
	if err != nil {
		return err
	}
	tables.SetCheckpoint(c)
	sum, errCells := regenerate(nil, 0, 0, order)
	tables.SetCheckpoint(nil)
	saved := c.Saved()
	err = c.Close()
	t.samples.resume = append(t.samples.resume, time.Since(t0))
	root.End()
	if err != nil {
		return err
	}
	t.check("resume", sum, errCells)
	if saved != 0 {
		t.out.fail("resume journaled %d new cells, want 0", saved)
	}
	return nil
}

// tablesLayers fills the per-layer metrics of a traced tables run:
// table and checkpoint times from the spans, and the layers the tables
// reach only internally (the machines, the limit computations and the
// runner pool) from direct replays on the tables' own inputs.
func tablesLayers(cfg *config, op int64, vals map[string]float64) error {
	spans := cfg.tr.Spans()
	for _, g := range tableGens {
		vals[g.metric] = ms(byName(spans, g.span).median())
	}
	vals["tables.ckpt_load_ms"] = ms(byName(spans, "tables.OpenCheckpoint").median())

	var all, scalar []*trace.Trace
	var ops int64
	for _, k := range loops.All() {
		t := k.SharedTrace()
		all = append(all, t)
		ops += int64(t.Len())
		if k.Class == loops.Scalar {
			scalar = append(scalar, t)
		}
	}
	// Kernels are built and decoded at set-up only, so on this workload
	// the loops and trace metrics are per set-up.
	setups := int64(len(byName(spans, "Kernel.Trace"))) / int64(len(loops.All()))
	vals["loops.builds"] = float64(len(loops.All()))
	vals["loops.build_ms"] = ms(byName(spans, "Kernel.Trace").total()) / float64(setups)
	vals["trace.prepare_ns_per_op"] = float64(byName(spans, "trace.Prepare").total().Nanoseconds()) / float64(ops*setups)
	vals["trace.period_ms"] = ms(byName(spans, "Prepared.Period").total()) / float64(setups)

	var jobs []machineJob
	for _, s := range tablesMachines {
		c, err := machdef.Canonicalize(s)
		if err != nil {
			return err
		}
		jobs = append(jobs, machineJob{c, all})
	}
	if err := replayMachines(cfg.tr, op, jobs, 3, vals); err != nil {
		return err
	}
	vals["limits.ns_per_instr"] = replayLimits(cfg.tr, op, all)

	// Table 7's grid: the tables' largest runner fan-out.
	var tasks []runner.Task
	for _, c := range core.BaseConfigs() {
		for _, size := range tables.RUUSizes {
			for n := 1; n <= 4; n++ {
				for _, bus := range []string{"nbus", "1bus"} {
					s := machdef.Spec{Kind: "ruu", Mem: c.MemLatency, Br: c.BranchLatency, Width: n, Bus: bus, RUU: size}
					tasks = append(tasks, runner.Task{New: mustNew(s), Traces: scalar})
				}
			}
		}
	}
	return replayRunner(context.Background(), cfg.tr, op, cfg.workers, tasks, vals)
}
