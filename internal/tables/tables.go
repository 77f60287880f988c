// Package tables regenerates the eight tables of the paper's
// evaluation. Each TableN function runs the full set of simulations
// behind the corresponding table and returns the rows in the paper's
// layout; Render prints them in an aligned text form.
//
// Issue rates are harmonic means over the loops of a class, exactly
// as in the paper: the scalar loops are LFK {5, 6, 11, 13, 14}, the
// vectorizable loops LFK {1, 2, 3, 4, 7, 8, 9, 10, 12}.
//
// Table generation is parallel: every (machine, configuration, trace)
// cell of a table's grid is an independent simulation, so the cells
// fan out across a worker pool (internal/runner) bounded by
// SetParallel — GOMAXPROCS by default. Results are assembled by cell
// index, so a table's contents are bit-identical at any worker count.
//
// A cell whose machine is the same machine as another cell's in its
// table, over the same traces, takes that cell's run instead of
// simulating its own (runner.RunDistinct, machdef.Spec.Family), as
// does a cell whose machine has more unit copies than another's that
// never found those units busy. With one issue unit the N-Bus and
// 1-Bus interconnects are one result bus, so each width-1 1-Bus cell
// of Tables 3-8 is its N-Bus twin. Sharing changes the work only:
// every rate, error and journal line is the one the cell's own run
// would give.
package tables

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mfup/internal/core"
	"mfup/internal/events"
	"mfup/internal/isa"
	"mfup/internal/limits"
	"mfup/internal/loops"
	"mfup/internal/machdef"
	"mfup/internal/probe"
	"mfup/internal/runner"
	"mfup/internal/stats"
	"mfup/internal/trace"
)

// parallel is the configured worker count; <= 0 means GOMAXPROCS.
var parallel atomic.Int64

// SetParallel sets the worker-goroutine count used to generate
// tables. n <= 0 restores the default (all cores). Table output is
// independent of this setting; only wall-clock time changes.
func SetParallel(n int) { parallel.Store(int64(n)) }

// Parallel returns the configured worker count: the last SetParallel
// value, or 0 meaning "all cores".
func Parallel() int { return int(parallel.Load()) }

// extrapolate toggles the steady-state extrapolation engine for every
// simulated cell.
var extrapolate atomic.Bool

// SetExtrapolate wraps every table cell's machine in the steady-state
// extrapolation engine (core.Extrapolate): runs the engine can close
// analytically skip the repetitive middle of each loop, and the rest
// fall back to full simulation. Table values are bit-identical either
// way; only the cost model changes — the engine's reference ladder
// makes it a net win for scaled-up loop lengths (SetScale), not for
// the paper defaults.
func SetExtrapolate(on bool) { extrapolate.Store(on) }

// Extrapolate reports whether the extrapolation engine is enabled.
func Extrapolate() bool { return extrapolate.Load() }

// scaleN is the requested per-kernel loop length; 0 means the paper
// defaults.
var scaleN atomic.Int64

// SetScale regenerates every kernel at loop length n instead of the
// paper defaults; n <= 0 restores the defaults. The kernels resolve
// through core.ScaleKernels: each materializes the largest length its
// memory layout supports, and a kernel with a detectable steady state
// accounts for the rest analytically, so n far beyond physical layouts
// stays affordable. That holds with or without SetExtrapolate, which
// only changes what the other iterations cost. Kernels that can do
// neither are clamped, and ScaleNotes reports them.
func SetScale(n int) {
	if n < 0 {
		n = 0
	}
	scaleN.Store(int64(n))
}

// Scale returns the requested loop length, or 0 for the paper
// defaults.
func Scale() int { return int(scaleN.Load()) }

// allKernels is every kernel, resolved at each scale through scaled,
// which keeps the workload of the most recent scale.
var (
	allKernels = loops.All()
	scaled     core.WorkloadMemo
)

// workload returns every kernel resolved at the current scale,
// resolving on first use and whenever the requested scale changes.
func workload() core.Workload { return scaled.Scale(allKernels, Scale()) }

// ScaleNotes reports, after table generation, which kernels could not
// reach the requested SetScale length and were clamped. Empty at the
// paper defaults.
func ScaleNotes() []string { return workload().Notes }

// collectMetrics toggles per-cell stall-breakdown collection.
var collectMetrics atomic.Bool

// SetCollectMetrics enables stall-reason metrics collection during
// table generation: every simulated cell gets a probe.Counters
// accumulator, exposed afterward as Table.Metrics. The default (off)
// runs every machine with a nil probe, so table values and timing are
// unaffected; collection never changes the rates either — the probe
// layer is observation-only.
func SetCollectMetrics(on bool) { collectMetrics.Store(on) }

// CollectMetrics reports whether metrics collection is enabled.
func CollectMetrics() bool { return collectMetrics.Load() }

// collectTraces toggles per-cell lifecycle-event recording.
var collectTraces atomic.Bool

// traceEventCap is the per-run event cap for cell recorders; 0 means
// DefaultTraceEventCap.
var traceEventCap atomic.Int64

// DefaultTraceEventCap is the per-run event cap used for table cells
// when SetTraceEventCap has not chosen one. Tables run hundreds of
// cells over fourteen loops each, so the per-run bound here is much
// tighter than events.DefaultCap; drops are counted and surfaced in
// the metrics rather than growing without limit.
const DefaultTraceEventCap = 4096

// SetCollectTraces enables per-cell event recording during table
// generation: every simulated cell gets an events.Recorder, exposed
// afterward as the Recorder field of Table.Metrics and exportable
// with Table.WriteTraces. Like the probe layer, recording is
// observation-only: table values are identical with and without it.
func SetCollectTraces(on bool) { collectTraces.Store(on) }

// CollectTraces reports whether event recording is enabled.
func CollectTraces() bool { return collectTraces.Load() }

// SetTraceEventCap bounds each cell run's recorded events; n <= 0
// restores DefaultTraceEventCap. Events beyond the cap are dropped
// and counted, never accumulated.
func SetTraceEventCap(n int) {
	if n < 0 {
		n = 0
	}
	traceEventCap.Store(int64(n))
}

// TraceEventCap returns the effective per-run event cap.
func TraceEventCap() int {
	if n := int(traceEventCap.Load()); n > 0 {
		return n
	}
	return DefaultTraceEventCap
}

// CellMetrics is one grid cell's observability record: which row and
// column of the table it belongs to, the accumulated stall counters
// over all of the cell's loop runs (nil unless SetCollectMetrics was
// on), the cell's event recorder (nil unless SetCollectTraces was
// on), and the cell's execution telemetry — wall-clock time,
// simulated cycles, and recorder drop counts.
type CellMetrics struct {
	Row      string
	Column   string
	Counters *probe.Counters
	Recorder *events.Recorder

	Wall          time.Duration // wall-clock time over the cell's runs
	Cycles        int64         // simulated cycles summed over the cell's runs
	Events        int64         // lifecycle events recorded
	EventsDropped int64         // events dropped at the recorder's cap
}

// guardCfg holds the per-cell execution bounds and resilience
// settings applied during table generation; the zero value (no
// bounds, no retries, no checkpoint) reproduces the tables with no
// guard overhead on the healthy path.
var guardCfg struct {
	sync.Mutex
	lim          core.Limits
	cellTimeout  time.Duration
	ctx          context.Context
	retries      int
	retryBackoff time.Duration
	retrySeed    int64
	ckpt         *Checkpoint
}

// SetLimits bounds every simulation cell run during table generation
// (cycle budget, stall watchdog, deadline). The zero Limits restores
// unbounded execution.
func SetLimits(lim core.Limits) {
	guardCfg.Lock()
	defer guardCfg.Unlock()
	guardCfg.lim = lim
}

// SetCellTimeout gives each simulation cell its own wall-clock
// deadline during table generation; d <= 0 disables it.
func SetCellTimeout(d time.Duration) {
	guardCfg.Lock()
	defer guardCfg.Unlock()
	guardCfg.cellTimeout = d
}

// SetContext installs the cancellation context observed by table
// generation: when it ends (SIGINT/SIGTERM in mfutables), in-flight
// cells finish, unstarted cells are skipped with runner.ErrSkipped,
// and the partial table still renders. nil restores Background.
func SetContext(ctx context.Context) {
	guardCfg.Lock()
	defer guardCfg.Unlock()
	guardCfg.ctx = ctx
}

// SetRetry configures per-cell retrying of transient failures during
// table generation: up to retries re-attempts with exponential
// backoff from base backoff (0 = the runner default) and
// deterministic jitter derived from seed. retries <= 0 disables.
func SetRetry(retries int, backoff time.Duration, seed int64) {
	guardCfg.Lock()
	defer guardCfg.Unlock()
	guardCfg.retries = retries
	guardCfg.retryBackoff = backoff
	guardCfg.retrySeed = seed
}

// SetCheckpoint installs a journal of completed cells: every healthy
// cell's rate is appended as soon as its batch resolves, and cells
// already in the journal are served from it without simulation. nil
// disables checkpointing.
func SetCheckpoint(c *Checkpoint) {
	guardCfg.Lock()
	defer guardCfg.Unlock()
	guardCfg.ckpt = c
}

// runnerOptions snapshots the configured worker count, bounds, and
// retry policy.
func runnerOptions() runner.Options {
	guardCfg.Lock()
	defer guardCfg.Unlock()
	return runner.Options{
		Parallel:     Parallel(),
		Limits:       guardCfg.lim,
		CellTimeout:  guardCfg.cellTimeout,
		Retries:      guardCfg.retries,
		RetryBackoff: guardCfg.retryBackoff,
		RetrySeed:    guardCfg.retrySeed,
	}
}

// batchContext returns the configured cancellation context.
func batchContext() context.Context {
	guardCfg.Lock()
	defer guardCfg.Unlock()
	if guardCfg.ctx != nil {
		return guardCfg.ctx
	}
	return context.Background()
}

// checkpoint returns the installed journal, or nil.
func checkpoint() *Checkpoint {
	guardCfg.Lock()
	defer guardCfg.Unlock()
	return guardCfg.ckpt
}

// Table is a rendered experiment: a grid of issue rates.
type Table struct {
	Number  int
	Title   string
	Columns []string // value column headers
	Rows    []Row

	// Errors collects the failures of cells that could not be
	// simulated (panic, watchdog, bad configuration). A failed cell's
	// rate is NaN and renders as ERR; every healthy cell still holds
	// its correct value.
	Errors []*runner.CellError

	// Metrics holds each simulated cell's stall breakdown, row-major in
	// the grid's layout, when SetCollectMetrics(true) was in effect.
	// Nil otherwise, and always nil for the analytic Table 2, which
	// runs no machines.
	Metrics []CellMetrics

	// Retries counts transient-failure re-attempts spent generating the
	// table (always 0 unless SetRetry enabled retrying).
	Retries int64
}

// ErrorSummary renders one line per failed cell, or "" when the whole
// table generated cleanly.
func (t *Table) ErrorSummary() string {
	if len(t.Errors) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "table %d: %d cell(s) failed:\n", t.Number, len(t.Errors))
	for _, e := range t.Errors {
		fmt.Fprintf(&b, "  %v\n", e)
	}
	return b.String()
}

// Row is one table line.
type Row struct {
	Label string
	Rates []float64
}

// Render formats the table as aligned text, rates with the paper's
// two-decimal precision.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table %d. %s\n", t.Number, t.Title)
	width := 10
	for _, c := range t.Columns {
		if len(c)+2 > width {
			width = len(c) + 2
		}
	}
	label := 14
	for _, r := range t.Rows {
		if len(r.Label)+2 > label {
			label = len(r.Label) + 2
		}
	}
	fmt.Fprintf(&b, "%-*s", label, "")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%*s", width, c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", label, r.Label)
		for _, v := range r.Rates {
			if math.IsNaN(v) {
				fmt.Fprintf(&b, "%*s", width, "ERR")
			} else {
				fmt.Fprintf(&b, "%*s", width, stats.Rate2(v))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// fill populates t.Rows from cell rates produced in row-major order:
// len(t.Columns) consecutive rates per label.
func (t *Table) fill(labels []string, rates []float64) {
	w := len(t.Columns)
	for i, label := range labels {
		t.Rows = append(t.Rows, Row{Label: label, Rates: rates[i*w : (i+1)*w : (i+1)*w]})
	}
}

// resolve runs every cell of b and lays the results out in t: rates
// row-major under labels, metrics, failures and retries.
func (t *Table) resolve(labels []string, b *batch) {
	rates, errs := b.rates()
	t.fill(labels, rates)
	t.attachMetrics(labels, b)
	t.Errors = errs
	t.Retries = b.retries
}

// attachMetrics records each cell's observability record — counters,
// recorder, telemetry — with its grid position, in the same row-major
// order as fill. A no-op when neither metrics nor trace collection
// was on for the batch.
func (t *Table) attachMetrics(labels []string, b *batch) {
	if !b.observed {
		return
	}
	w := len(t.Columns)
	for i := range b.tasks {
		m := CellMetrics{
			Row: labels[i/w], Column: t.Columns[i%w],
			Counters: b.probes[i], Recorder: b.recorders[i],
		}
		if b.stats != nil {
			st := b.stats[i]
			m.Wall, m.Cycles = st.Wall, st.Cycles
			m.Events, m.EventsDropped = st.Events, st.EventsDropped
		}
		t.Metrics = append(t.Metrics, m)
	}
}

// classTraces returns the traces of a loop class at the current
// scale.
func classTraces(c loops.Class) []*trace.Trace {
	var ts []*trace.Trace
	for _, k := range workload().Kernels {
		if k.Class == c {
			ts = append(ts, k.SharedTrace())
		}
	}
	return ts
}

// batch accumulates a table's grid of cells — each a (machine
// constructor, trace set) pair whose value is a harmonic-mean issue
// rate — and evaluates all of their simulations in one parallel
// fan-out. Cells resolve in the order they were added, so callers lay
// out a table by adding cells row-major and calling rates once.
type batch struct {
	table     int // table number, the checkpoint journal key
	tasks     []runner.Task
	specs     []machdef.Spec     // per cell: its machine definition
	probes    []*probe.Counters  // per cell; nil entries when collection is off
	recorders []*events.Recorder // per cell; nil entries when tracing is off
	stats     []runner.TaskStat  // per cell, filled by rates
	retries   int64              // transient-failure re-attempts, summed by rates
	observed  bool               // any cell carries a probe or recorder
}

// cell schedules one grid cell: one machine from mk over all traces.
// s is the machine's definition, which names it for sharing a run
// (see rates); a machine not built from one passes the zero Spec and
// runs alone.
func (b *batch) cell(s machdef.Spec, mk func() core.Machine, ts []*trace.Trace) {
	if virtual := workload().Virtual; Extrapolate() || len(virtual) > 0 {
		inner := mk
		// Best effort: the rare machine/loop pair with no steady state
		// within the engine's sampled horizon falls back to its
		// materialized iterations rather than failing the cell.
		mk = func() core.Machine { return core.Extrapolate(inner()).WithVirtual(virtual).BestEffort() }
	}
	t := runner.Task{New: mk, Traces: ts}
	var c *probe.Counters
	if CollectMetrics() {
		c = new(probe.Counters)
		t.Probe = c
		b.observed = true
	}
	var r *events.Recorder
	if CollectTraces() {
		r = events.NewRecorder(TraceEventCap())
		t.Recorder = r
		b.observed = true
	}
	b.tasks = append(b.tasks, t)
	b.specs = append(b.specs, s)
	b.probes = append(b.probes, c)
	b.recorders = append(b.recorders, r)
}

// rates runs every scheduled simulation on the worker pool and
// returns each cell's harmonic-mean issue rate, in add order, plus
// the failures of any cells that could not be simulated. A failed
// cell's rate is NaN; healthy cells are unaffected. A run that
// completes but reports a non-positive issue rate is a failure too:
// the harmonic mean is undefined there (stats.HarmonicMean returns
// NaN), so the cell is marked ERR with a diagnostic naming the loop
// instead of leaking NaN into the rendered table.
func (b *batch) rates() ([]float64, []*runner.CellError) {
	// Options the runner cannot honor fail every cell, and the table
	// reports the *runner.OptionError once.
	opts := runnerOptions()
	if err := opts.Validate(); err != nil {
		out := make([]float64, len(b.tasks))
		for i := range out {
			out[i] = math.NaN()
		}
		return out, []*runner.CellError{{Task: -1, Trace: -1, Err: err}}
	}

	// Partition against the checkpoint journal: cells already
	// completed by an earlier (interrupted) run are served from it and
	// never re-simulated; only the remainder goes to the worker pool.
	ckpt := checkpoint()
	cached := make([]float64, len(b.tasks))
	run := make([]runner.Task, 0, len(b.tasks))
	origIdx := make([]int, 0, len(b.tasks)) // run index -> cell index
	for i := range b.tasks {
		if ckpt != nil {
			if rate, ok := ckpt.Lookup(b.table, i); ok {
				cached[i] = rate
				continue
			}
		}
		run = append(run, b.tasks[i])
		origIdx = append(origIdx, i)
	}

	// Cells whose machines are the same machine on the same traces
	// share one run, and a machine with more unit copies may take its
	// family's (machdef.Spec.Family). Only the cells that simulate pay
	// for a family: a full resume computes none. A cell whose spec
	// does not canonicalize (the zero Spec, say) runs alone.
	results, taskStats, errs := runner.RunDistinct(batchContext(), opts, run,
		func(ri int) (machdef.Identity, [isa.NumUnits]int, bool) {
			c, err := machdef.Canonicalize(b.specs[origIdx[ri]])
			if err != nil {
				return machdef.Identity{}, [isa.NumUnits]int{}, false
			}
			return c.Family()
		})

	// Remap everything the runner reported from run order back to cell
	// order, so grid layout, metrics, and error coordinates are
	// identical with and without a checkpoint.
	b.stats = make([]runner.TaskStat, len(b.tasks))
	for ri, st := range taskStats {
		b.stats[origIdx[ri]] = st
		b.retries += st.Retries
	}
	for _, e := range errs {
		e.Task = origIdx[e.Task]
	}
	failed := make(map[int]bool, len(errs))
	for _, e := range errs {
		failed[e.Task] = true
	}
	out := make([]float64, 0, len(b.tasks))
	rs := make([]float64, 0, 16)
	resultAt := make(map[int][]core.Result, len(results))
	for ri, cell := range results {
		resultAt[origIdx[ri]] = cell
	}
	for i := range b.tasks {
		cell, ran := resultAt[i]
		if !ran {
			out = append(out, cached[i])
			continue
		}
		if failed[i] {
			out = append(out, math.NaN())
			continue
		}
		rs = rs[:0]
		bad := false
		for j, r := range cell {
			rate := r.IssueRate()
			if !(rate > 0) {
				errs = append(errs, &runner.CellError{
					Task: i, Trace: j, Machine: r.Machine, TraceName: r.Trace,
					Err: fmt.Errorf("non-positive issue rate %g (%d instructions in %d cycles)",
						rate, r.Instructions, r.Cycles),
				})
				bad = true
				continue
			}
			rs = append(rs, rate)
		}
		if bad {
			out = append(out, math.NaN())
			continue
		}
		hm := stats.HarmonicMean(rs)
		out = append(out, hm)
		if ckpt != nil {
			ckpt.Record(b.table, i, hm)
		}
	}
	sort.Slice(errs, func(a, b int) bool {
		if errs[a].Task != errs[b].Task {
			return errs[a].Task < errs[b].Task
		}
		return errs[a].Trace < errs[b].Trace
	})
	return out, errs
}

// ---- declarative cell construction ----------------------------------
//
// Every simulated machine in the grid is built through a declarative
// machine definition (internal/machdef) rather than a hand-assembled
// constructor call. The golden-table tests and the seed snapshot
// therefore double as a byte-identity proof that the spec→constructor
// mapping is faithful; the same spec helpers feed JournalSignature, so
// the checkpoint journal is keyed by the full machine grid.

// orgKinds names the machdef kind of each §3 single-issue
// organization.
var orgKinds = map[core.Organization]string{
	core.Simple:       "simple",
	core.SerialMemory: "serialmem",
	core.NonSegmented: "nonseg",
	core.CRAYLike:     "cray",
}

// baseSpec carries one M/BR variation into a machine definition of
// the given kind.
func baseSpec(kind string, cfg core.Config) machdef.Spec {
	return machdef.Spec{Kind: kind, Mem: cfg.MemLatency, Br: cfg.BranchLatency}
}

// multiSpec is the Tables 3-6 cell: a multi or ooo machine with n
// issue stations on the named interconnect ("nbus" or "1bus").
func multiSpec(kind string, cfg core.Config, n int, busName string) machdef.Spec {
	s := baseSpec(kind, cfg)
	s.Width, s.Bus = n, busName
	return s
}

// ruuSpec is the Tables 7-8 cell: n issue units over a size-entry
// Register Update Unit.
func ruuSpec(cfg core.Config, n int, busName string, size int) machdef.Spec {
	s := baseSpec("ruu", cfg)
	s.Width, s.Bus, s.RUU = n, busName, size
	return s
}

// defCell schedules one grid cell built from its declarative machine
// definition. The grid's specs are static and covered by the golden
// tests, so a spec that fails to canonicalize or compile is a
// programming error: the constructor panics, and the runner's
// per-cell recovery turns that into the cell's ERR entry.
func (b *batch) defCell(s machdef.Spec, ts []*trace.Trace) {
	b.cell(s, func() core.Machine {
		c, err := machdef.Canonicalize(s)
		if err == nil {
			var m core.Machine
			if m, err = c.New(); err == nil {
				return m
			}
		}
		panic(fmt.Sprintf("tables: grid spec: %v", err))
	}, ts)
}

// journalVersion names the checkpoint journal's grid layout. Bump it
// whenever the tables change shape — rows, columns, or cell order —
// so every older journal fails closed instead of replaying rates into
// cells that have moved.
const journalVersion = "mfup-tables/v1"

// gridSpecKeys enumerates the content key of every machine definition
// the full table grid simulates, in a fixed order mirroring the table
// layouts below. It exists so JournalSignature changes whenever the
// set of simulated machines does — including through changes to
// machdef's canonical encoding or defaults.
func gridSpecKeys() []string {
	var keys []string
	add := func(s machdef.Spec) {
		c, err := machdef.Canonicalize(s)
		if err != nil {
			panic(fmt.Sprintf("tables: grid spec: %v", err))
		}
		keys = append(keys, c.Key())
	}
	for _, cfg := range core.BaseConfigs() {
		for _, org := range core.Organizations() { // Table 1
			add(baseSpec(orgKinds[org], cfg))
		}
		for n := 1; n <= 8; n++ { // Tables 3-6
			for _, kind := range []string{"multi", "ooo"} {
				add(multiSpec(kind, cfg, n, "nbus"))
				add(multiSpec(kind, cfg, n, "1bus"))
			}
		}
		for _, size := range RUUSizes { // Tables 7-8
			for n := 1; n <= 4; n++ {
				add(ruuSpec(cfg, n, "nbus", size))
				add(ruuSpec(cfg, n, "1bus", size))
			}
		}
		// §3.3 supplement schemes not already enumerated above.
		add(baseSpec("scoreboard", cfg))
		add(baseSpec("tomasulo", cfg))
	}
	return keys
}

// JournalSignature fingerprints everything a checkpoint journal's
// cell rates depend on: the grid-layout version, the loop scale, and
// the content keys of every machine definition in the grid. Journal
// cells are keyed (table, cell index), so any change to what a cell
// index means — a different scale, a reshaped grid, a changed machine
// definition — makes old journals unresumable, and OpenCheckpoint
// fails closed on the mismatch.
//
// Extrapolation and parallelism are deliberately absent from the
// signature: both are bit-identical knobs, so a journal written with
// them off resumes cleanly with them on, and vice versa.
func JournalSignature() string {
	h := sha256.New()
	io.WriteString(h, journalVersion)
	fmt.Fprintf(h, "|scale=%d", Scale())
	for _, k := range gridSpecKeys() {
		io.WriteString(h, "|")
		io.WriteString(h, k)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// configColumns returns the paper's four machine-variation headers.
func configColumns() []string {
	var cols []string
	for _, cfg := range core.BaseConfigs() {
		cols = append(cols, cfg.Name())
	}
	return cols
}

// Table1 reproduces "Instruction Issue Rates for Different Basic
// Machine Organizations": the four single-issue machines of §3 over
// both loop classes and all four M/BR variations.
func Table1() *Table {
	t := &Table{
		Number:  1,
		Title:   "Instruction Issue Rates for Different Basic Machine Organizations",
		Columns: configColumns(),
	}
	b := batch{table: t.Number}
	var labels []string
	for _, class := range []loops.Class{loops.Scalar, loops.Vectorizable} {
		ts := classTraces(class)
		for _, org := range core.Organizations() {
			labels = append(labels, fmt.Sprintf("%s %s", class, org))
			for _, cfg := range core.BaseConfigs() {
				b.defCell(baseSpec(orgKinds[org], cfg), ts)
			}
		}
	}
	t.resolve(labels, &b)
	return t
}

// Table2 reproduces "The Pseudo-Dataflow and Resource Limits for
// Vector and Scalar Loops": §4's bounds under unlimited ("Pure") and
// in-order-WAW ("Serial") buffering assumptions. Columns are the
// pseudo-dataflow limit, the resource limit, and the actual limit
// (harmonic mean of per-loop minima). The bounds are analytical, not
// machine runs, so the fan-out here is over limit computations.
func Table2() *Table {
	t := &Table{
		Number:  2,
		Title:   "The Pseudo-Dataflow and Resource Limits for Vector and Scalar Loops",
		Columns: []string{"Pseudo-DF", "Resource", "Actual"},
	}
	type job struct {
		tr   *trace.Trace
		cfg  core.Config
		mode limits.Mode
	}
	var (
		jobs   []job
		labels []string
		rows   [][2]int // [first, count) job range per row
	)
	for _, class := range []loops.Class{loops.Scalar, loops.Vectorizable} {
		ts := classTraces(class)
		for _, mode := range []limits.Mode{limits.Pure, limits.Serial} {
			for _, cfg := range core.BaseConfigs() {
				labels = append(labels, fmt.Sprintf("%s %s %s", class, mode, cfg.Name()))
				rows = append(rows, [2]int{len(jobs), len(ts)})
				for _, tr := range ts {
					jobs = append(jobs, job{tr: tr, cfg: cfg, mode: mode})
				}
			}
		}
	}
	results := make([]limits.Limits, len(jobs))
	jobErrs := make([]error, len(jobs))
	runner.Each(Parallel(), len(jobs), func(i int) {
		j := jobs[i]
		jobErrs[i] = runner.Safe(func() {
			results[i] = limits.Compute(j.tr, j.cfg.Latencies(), j.mode)
		})
		if jobErrs[i] != nil {
			nan := math.NaN()
			results[i] = limits.Limits{PseudoDataflow: nan, Resource: nan, Actual: nan}
		}
	})
	for i, err := range jobErrs {
		if err != nil {
			t.Errors = append(t.Errors, &runner.CellError{
				Task: i, Trace: -1, Machine: "limit computation",
				TraceName: jobs[i].tr.Name, Err: err,
			})
			continue
		}
		// A bound that is not strictly positive poisons its row's
		// harmonic mean (NaN); report it like any other failed cell so
		// the ERR rendering comes with a diagnostic and exit status 1.
		l := results[i]
		if !(l.PseudoDataflow > 0) || !(l.Resource > 0) || !(l.Actual > 0) {
			t.Errors = append(t.Errors, &runner.CellError{
				Task: i, Trace: -1, Machine: "limit computation",
				TraceName: jobs[i].tr.Name,
				Err: fmt.Errorf("non-positive limit (pseudo-dataflow %g, resource %g, actual %g)",
					l.PseudoDataflow, l.Resource, l.Actual),
			})
		}
	}
	for i, label := range labels {
		first, n := rows[i][0], rows[i][1]
		var pdf, res, act []float64
		for _, l := range results[first : first+n] {
			pdf = append(pdf, l.PseudoDataflow)
			res = append(res, l.Resource)
			act = append(act, l.Actual)
		}
		t.Rows = append(t.Rows, Row{
			Label: label,
			Rates: []float64{
				stats.HarmonicMean(pdf),
				stats.HarmonicMean(res),
				stats.HarmonicMean(act),
			},
		})
	}
	return t
}

// issueStationColumns builds the N-Bus/1-Bus column pairs used by
// Tables 3-6.
func issueStationColumns() []string {
	var cols []string
	for _, cfg := range core.BaseConfigs() {
		cols = append(cols, cfg.Name()+" N-Bus", cfg.Name()+" 1-Bus")
	}
	return cols
}

// multiIssueTable implements Tables 3-6: one row per issue-station
// count 1-8, N-Bus and 1-Bus columns for each machine variation. kind
// is the machdef kind simulated: "multi" (sequential issue) or "ooo"
// (out-of-order issue).
func multiIssueTable(number int, title string, class loops.Class, kind string) *Table {
	t := &Table{Number: number, Title: title, Columns: issueStationColumns()}
	ts := classTraces(class)
	b := batch{table: t.Number}
	var labels []string
	for n := 1; n <= 8; n++ {
		labels = append(labels, fmt.Sprintf("%d stations", n))
		for _, cfg := range core.BaseConfigs() {
			b.defCell(multiSpec(kind, cfg, n, "nbus"), ts)
			b.defCell(multiSpec(kind, cfg, n, "1bus"), ts)
		}
	}
	t.resolve(labels, &b)
	return t
}

// Table3 reproduces "Multiple Issue Units, Sequential Issue of Scalar
// Code" (§5.1).
func Table3() *Table {
	return multiIssueTable(3, "Multiple Issue Units, Sequential Issue of Scalar Code",
		loops.Scalar, "multi")
}

// Table4 reproduces "Multiple Issue Units, Sequential Issue for
// Vectorizable Code" (§5.1).
func Table4() *Table {
	return multiIssueTable(4, "Multiple Issue Units, Sequential Issue for Vectorizable Code",
		loops.Vectorizable, "multi")
}

// Table5 reproduces "Multiple Issue Units, Out-of-Order Issue for
// Scalar Code" (§5.2).
func Table5() *Table {
	return multiIssueTable(5, "Multiple Issue Units, Out-of-Order Issue for Scalar Code",
		loops.Scalar, "ooo")
}

// Table6 reproduces "Multiple Issue Units, Out-of-Order Issue for
// Vectorizable Loops" (§5.2).
func Table6() *Table {
	return multiIssueTable(6, "Multiple Issue Units, Out-of-Order Issue for Vectorizable Loops",
		loops.Vectorizable, "ooo")
}

// RUUSizes are the Register Update Unit sizes of Tables 7 and 8.
var RUUSizes = []int{10, 20, 30, 40, 50, 100}

// ruuTable implements Tables 7 and 8: rows are machine variation x
// RUU size; columns are issue-unit counts 1-4, each with N-Bus and
// 1-Bus.
func ruuTable(number int, title string, class loops.Class) *Table {
	t := &Table{Number: number, Title: title}
	for n := 1; n <= 4; n++ {
		t.Columns = append(t.Columns,
			fmt.Sprintf("%d N-Bus", n), fmt.Sprintf("%d 1-Bus", n))
	}
	ts := classTraces(class)
	b := batch{table: t.Number}
	var labels []string
	for _, cfg := range core.BaseConfigs() {
		for _, size := range RUUSizes {
			labels = append(labels, fmt.Sprintf("%s RUU %d", cfg.Name(), size))
			for n := 1; n <= 4; n++ {
				b.defCell(ruuSpec(cfg, n, "nbus", size), ts)
				b.defCell(ruuSpec(cfg, n, "1bus", size), ts)
			}
		}
	}
	t.resolve(labels, &b)
	return t
}

// Table7 reproduces "Multiple Issue Units with Dependency Resolution;
// Scalar Code" (§5.3).
func Table7() *Table {
	return ruuTable(7, "Multiple Issue Units with Dependency Resolution; Scalar Code", loops.Scalar)
}

// Table8 reproduces "Multiple Issue Units with Dependency Resolution;
// Vectorizable Code" (§5.3).
func Table8() *Table {
	return ruuTable(8, "Multiple Issue Units with Dependency Resolution; Vectorizable Code", loops.Vectorizable)
}

// All regenerates every table in paper order.
func All() []*Table {
	return []*Table{
		Table1(), Table2(), Table3(), Table4(),
		Table5(), Table6(), Table7(), Table8(),
	}
}

// Get returns table n (1-8).
func Get(n int) (*Table, error) {
	switch n {
	case 1:
		return Table1(), nil
	case 2:
		return Table2(), nil
	case 3:
		return Table3(), nil
	case 4:
		return Table4(), nil
	case 5:
		return Table5(), nil
	case 6:
		return Table6(), nil
	case 7:
		return Table7(), nil
	case 8:
		return Table8(), nil
	}
	return nil, fmt.Errorf("tables: no table %d (the paper has tables 1-8)", n)
}

// SectionThreeThree is a supplementary table (not printed in the
// paper, but §3.3 quotes its endpoints): single-issue dependency
// resolution schemes compared on the four machine variations. Rows
// are loop classes x schemes; columns are the M/BR variations. The
// schemes are the blocking CRAY-like issue, the CDC-6600 scoreboard
// (issues past RAW, blocks WAW), Tomasulo (renames; one common data
// bus), and the RUU with one issue unit and 50 entries (the paper's
// §3.3 configuration, quoted as ~0.72 scalar / ~0.81 vectorizable on
// M11BR5).
func SectionThreeThree() *Table {
	t := &Table{
		Number:  0,
		Title:   "Supplement: Single-Issue Dependency Resolution Schemes (paper section 3.3)",
		Columns: configColumns(),
	}
	schemes := []struct {
		name string
		spec func(core.Config) machdef.Spec
	}{
		{"CRAY-like (blocking)", func(c core.Config) machdef.Spec { return baseSpec("cray", c) }},
		{"Scoreboard (CDC 6600)", func(c core.Config) machdef.Spec { return baseSpec("scoreboard", c) }},
		{"Tomasulo (360/91)", func(c core.Config) machdef.Spec { return baseSpec("tomasulo", c) }},
		{"RUU 1 unit, 50 entries", func(c core.Config) machdef.Spec { return ruuSpec(c, 1, "nbus", 50) }},
	}
	b := batch{table: t.Number}
	var labels []string
	for _, class := range []loops.Class{loops.Scalar, loops.Vectorizable} {
		ts := classTraces(class)
		for _, s := range schemes {
			labels = append(labels, fmt.Sprintf("%s %s", class, s.name))
			for _, cfg := range core.BaseConfigs() {
				b.defCell(s.spec(cfg), ts)
			}
		}
	}
	t.resolve(labels, &b)
	return t
}
