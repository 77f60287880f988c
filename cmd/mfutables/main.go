// Command mfutables regenerates the tables of Pleszkun & Sohi (1988).
//
// Usage:
//
//	mfutables                      # all eight tables
//	mfutables -table 7             # one table
//	mfutables -parallel 4          # four worker goroutines (default: all cores)
//	mfutables -metrics stalls.json # also write per-cell stall breakdowns
//
// Each table is produced by running the full set of simulations
// behind it (all loops, all machine variations), so the output is the
// reproduction of the paper's evaluation. The simulations fan out
// across a worker pool; the output is bit-identical at any -parallel
// value.
//
// -scale n regenerates every kernel at loop length n instead of the
// paper defaults. A kernel whose memory layout cannot hold n
// iterations reaches n analytically through the steady-state
// extrapolation engine; one it cannot extend either (no steady state)
// is clamped to its largest feasible length, with a note on standard
// error. -extrapolate wraps every simulated cell in the engine
// (core.Extrapolate): at any -scale, table values are bit-identical
// with or without it, but the repetitive middle of each loop is
// closed analytically, which makes huge -scale values affordable.
//
// -cpuprofile and -memprofile write pprof profiles of the run, for
// use with `go tool pprof`.
//
// -metrics FILE attaches a stall-attribution probe to every simulated
// cell and writes each cell's per-reason stall breakdown to FILE —
// JSON by default, CSV when FILE ends in ".csv". The probe observes
// without perturbing: table values are identical with and without it.
// The analytic Table 2 runs no machines and contributes no metrics.
//
// -trace-dir DIR attaches a per-instruction event recorder to every
// simulated cell and writes one Chrome trace-event JSON file per cell
// into DIR (created if absent), named table<N>_<row>_<column>.json —
// loadable directly in ui.perfetto.dev. Traces are written and
// released table by table, so peak memory stays bounded;
// -trace-events caps the events kept per loop run (default 4096,
// overflow counted, surfaced in -metrics as events_dropped). Like the
// probe, the recorder observes without perturbing.
//
// Cells that fail (a panic, an exhausted -maxcycles budget, a
// triggered -stallcycles watchdog, or a -timeout deadline) render as
// ERR; the rest of the table is still produced, a per-cell diagnostic
// summary goes to standard error, and the exit status is 1.
//
// -retries N re-attempts cells that fail transiently (a -timeout
// deadline, or an injected transient fault) up to N times, with
// exponential backoff from -retry-backoff (default 100ms) and
// deterministic jitter seeded by -fault-seed.
//
// -checkpoint FILE journals every completed cell to FILE (JSONL,
// append-only, crash-safe); a rerun against the same journal serves
// journaled cells without simulation, so an interrupted sweep resumes
// where it stopped and still renders byte-identical tables. SIGINT or
// SIGTERM cancels cleanly: in-flight cells finish, the journal is
// flushed, and a fault summary is printed (a second signal kills).
//
// -faults PLAN arms the deterministic fault-injection layer
// (internal/faultinject) for chaos testing: injected panics, stalls,
// transient errors, and export-write failures, placed by -fault-seed.
//
// -sweep FILE leaves the paper's tables behind entirely and runs a
// design-space sweep from the JSON spec in FILE (see internal/dse): a
// base machine definition plus per-knob axes, expanded into every
// combination, pruned by the analytic queueing model, simulated, and
// reported as a Pareto frontier of issue rate against hardware cost.
// -format selects the report form (text, csv, json), -parallel sizes
// the worker pool, -maxcycles/-stallcycles bound each point, and
// -checkpoint becomes the sweep's resume journal (content-addressed
// per point, so it needs no signature). The spec's own scale and
// extrapolate fields govern the workload, so the table-oriented
// -scale/-extrapolate flags conflict, as do the per-cell observers
// (-metrics, -trace-dir) and knobs the sweep runner does not thread
// (-timeout, -retries).
//
// Diagnostics go through a shared logger: -v lowers its level to
// debug (per-table wall-clock timings, trace-export notes), and
// MFU_LOG (debug | info | warn | error) overrides it.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"mfup/internal/atomicio"
	"mfup/internal/cli"
	"mfup/internal/core"
	"mfup/internal/dse"
	"mfup/internal/faultinject"
	"mfup/internal/tables"
)

func main() {
	os.Exit(run())
}

// run carries the real main so that deferred profile writers fire
// before the process exits.
func run() int {
	table := flag.Int("table", 0, "table number 1-8; 0 regenerates all")
	supplement := flag.Bool("supplement", false, "also print the section 3.3 dependency-resolution supplement")
	scale := flag.Int("scale", 0, "loop length for every kernel (0 = paper defaults); kernels past their memory layout extend analytically, or are clamped and noted")
	extrap := flag.Bool("extrapolate", false, "close each loop's steady-state middle analytically instead of simulating every iteration")
	format := flag.String("format", "text", "output format: text | csv | json")
	parallel := flag.Int("parallel", 0, "worker goroutines for the simulations; 0 = all cores")
	maxCycles := flag.Int64("maxcycles", 0, "per-cell simulated-cycle budget; 0 = unlimited")
	stallCycles := flag.Int64("stallcycles", 0, "cycles without forward progress before a cell is declared stalled; 0 = off")
	timeout := flag.Duration("timeout", 0, "per-cell wall-clock deadline (e.g. 30s); 0 = none")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	metrics := flag.String("metrics", "", "write per-cell stall breakdowns to this file (JSON, or CSV with a .csv suffix)")
	traceDir := flag.String("trace-dir", "", "write one Chrome trace-event JSON file per cell into this directory")
	traceEvents := flag.Int("trace-events", 0, "events kept per loop run for -trace-dir; 0 = 4096, overflow is dropped and counted")
	retries := flag.Int("retries", 0, "per-cell retries of transient failures (deadline, injected-transient); 0 = off")
	retryBackoff := flag.Duration("retry-backoff", 0, "base retry backoff, doubled per attempt with deterministic jitter; 0 = 100ms")
	checkpointPath := flag.String("checkpoint", "", "JSONL journal of completed cells; an interrupted run resumes from it without recomputation")
	sweepPath := flag.String("sweep", "", "run the design-space sweep defined by this JSON spec instead of the paper tables")
	faults := flag.String("faults", "", "fault-injection plan, e.g. 'sim:panic:at=1000,write.metrics:werr' (chaos testing)")
	faultSeed := flag.Int64("fault-seed", 1, "seed for fault placement and retry jitter")
	verbose := flag.Bool("v", false, "verbose logging (debug level) on standard error")
	flag.Parse()
	log := cli.NewLogger("mfutables", *verbose)
	seedSet, scaleSet := false, false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "fault-seed":
			seedSet = true
		case "scale":
			scaleSet = true
		}
	})

	fail := func(err error) int {
		log.Error(err.Error())
		return 1
	}

	// Validate the flag set before any simulation runs, so a bad
	// combination fails immediately instead of after minutes of work
	// (or, for -format, after half the output is already printed).
	switch {
	case *format != "text" && *format != "csv" && *format != "json":
		return fail(fmt.Errorf("unknown format %q (want text, csv, or json)", *format))
	case *table < 0 || *table > 8:
		return fail(fmt.Errorf("-table %d out of range (the paper has tables 1-8; 0 = all)", *table))
	case *supplement && *table != 0:
		return fail(fmt.Errorf("-supplement conflicts with -table %d: the supplement only prints with the full set (-table 0)", *table))
	case *parallel < 0:
		return fail(fmt.Errorf("-parallel %d is negative (0 = all cores)", *parallel))
	case *maxCycles < 0:
		return fail(fmt.Errorf("-maxcycles %d is negative (0 = unlimited)", *maxCycles))
	case *stallCycles < 0:
		return fail(fmt.Errorf("-stallcycles %d is negative (0 = off)", *stallCycles))
	case *timeout < 0:
		return fail(fmt.Errorf("-timeout %v is negative (0 = none)", *timeout))
	case *traceEvents < 0:
		return fail(fmt.Errorf("-trace-events %d is negative (0 = default cap)", *traceEvents))
	case *traceEvents > 0 && *traceDir == "":
		return fail(fmt.Errorf("-trace-events needs -trace-dir"))
	case *retries < 0:
		return fail(fmt.Errorf("-retries %d is negative (0 = off)", *retries))
	case *retryBackoff < 0:
		return fail(fmt.Errorf("-retry-backoff %v is negative", *retryBackoff))
	case *retryBackoff != 0 && *retries == 0:
		return fail(fmt.Errorf("-retry-backoff needs -retries"))
	case *checkpointPath != "" && *metrics != "":
		return fail(fmt.Errorf("-checkpoint conflicts with -metrics: cells served from the journal are not re-simulated and would hole the metrics"))
	case *checkpointPath != "" && *traceDir != "":
		return fail(fmt.Errorf("-checkpoint conflicts with -trace-dir: cells served from the journal are not re-simulated and record no events"))
	case seedSet && *faults == "":
		return fail(fmt.Errorf("-fault-seed needs -faults"))
	case scaleSet && *scale < 1:
		return fail(fmt.Errorf("-scale %d: loop length must be at least 1", *scale))
	case *sweepPath != "" && *table != 0:
		return fail(fmt.Errorf("-sweep conflicts with -table: a sweep runs its own machine grid, not the paper's"))
	case *sweepPath != "" && *supplement:
		return fail(fmt.Errorf("-sweep conflicts with -supplement"))
	case *sweepPath != "" && (scaleSet || *extrap):
		return fail(fmt.Errorf("-sweep conflicts with -scale/-extrapolate: the sweep spec's own scale and extrapolate fields govern its workload"))
	case *sweepPath != "" && (*metrics != "" || *traceDir != ""):
		return fail(fmt.Errorf("-sweep conflicts with -metrics/-trace-dir: sweep points carry no per-cell observers"))
	case *sweepPath != "" && (*timeout != 0 || *retries != 0):
		return fail(fmt.Errorf("-sweep conflicts with -timeout/-retries: use -maxcycles/-stallcycles to bound sweep points"))
	}

	var injector *faultinject.Injector
	if *faults != "" {
		plan, err := faultinject.ParsePlan(*faults, *faultSeed)
		if err != nil {
			return fail(err)
		}
		injector = faultinject.New(plan)
		faultinject.Activate(injector)
		defer faultinject.Deactivate()
		log.Warn("fault injection active; failures below may be deliberate", "plan", *faults, "seed", *faultSeed)
	}

	tables.SetParallel(*parallel)
	tables.SetCollectMetrics(*metrics != "")
	tables.SetCollectTraces(*traceDir != "")
	tables.SetTraceEventCap(*traceEvents)
	tables.SetLimits(core.Limits{MaxCycles: *maxCycles, StallCycles: *stallCycles})
	if *timeout > 0 {
		tables.SetCellTimeout(*timeout)
	}
	tables.SetRetry(*retries, *retryBackoff, *faultSeed)
	tables.SetScale(*scale)
	tables.SetExtrapolate(*extrap)

	// SIGINT/SIGTERM cancels the generation context: in-flight cells
	// finish, unstarted cells are skipped, completed cells are already
	// journaled, and the run exits with a resume hint. A second signal
	// gets the default kill behavior.
	intr := cli.NotifyInterrupt(context.Background(), log,
		"interrupted; finishing in-flight cells and flushing the checkpoint (signal again to kill)")
	defer intr.Stop()
	ctx := intr.Context()
	tables.SetContext(ctx)

	var ckpt *tables.Checkpoint
	if *checkpointPath != "" && *sweepPath == "" {
		var err error
		// The signature binds the journal to this run's scale and machine
		// grid; SetScale has already run, so it is final here.
		ckpt, err = tables.OpenCheckpoint(*checkpointPath, tables.JournalSignature())
		if err != nil {
			return fail(err)
		}
		tables.SetCheckpoint(ckpt)
		if n := ckpt.Loaded(); n > 0 {
			log.Info("resuming from checkpoint", "path", *checkpointPath, "cells", n)
		}
	}

	if *traceDir != "" {
		// Probe the directory for writability up front: a sweep takes
		// minutes, and discovering an unwritable destination only at
		// export time would waste all of it.
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			return fail(err)
		}
		probeFile := filepath.Join(*traceDir, ".mfutables-write-check")
		if err := os.WriteFile(probeFile, nil, 0o644); err != nil {
			return fail(fmt.Errorf("trace dir %s is not writable: %w", *traceDir, err))
		}
		os.Remove(probeFile)
	}

	if *cpuprofile != "" {
		// The CPU profile streams for the whole run; the atomic file
		// publishes it (rename into place) only after StopCPUProfile
		// has flushed, so an interrupted run leaves no torn profile.
		f, err := atomicio.Create("write.profile", *cpuprofile)
		if err != nil {
			return fail(err)
		}
		defer f.Abort()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Commit(); err != nil {
				fmt.Fprintln(os.Stderr, "mfutables:", err)
			}
		}()
	}
	if *memprofile != "" {
		f, err := atomicio.Create("write.profile", *memprofile)
		if err != nil {
			return fail(err)
		}
		defer func() {
			runtime.GC()
			err := pprof.WriteHeapProfile(f)
			if err == nil {
				err = f.Commit()
			} else {
				f.Abort()
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "mfutables:", err)
			}
		}()
	}

	if *sweepPath != "" {
		return runSweep(ctx, log, sweepArgs{
			specPath:    *sweepPath,
			journalPath: *checkpointPath,
			format:      *format,
			parallel:    *parallel,
			limits:      core.Limits{MaxCycles: *maxCycles, StallCycles: *stallCycles},
			injector:    injector,
			intr:        intr,
		})
	}

	cellsFailed := false
	var emitted []*tables.Table
	emit := func(t *tables.Table) error {
		emitted = append(emitted, t)
		if *traceDir != "" {
			// Export and release per table, so a full sweep never holds
			// more than one table's event storage at once.
			n, err := tables.WriteTraces(*traceDir, t)
			if err != nil {
				return err
			}
			tables.ReleaseTraces(t)
			log.Debug("traces written", "table", t.Number, "files", n)
		}
		switch *format {
		case "text":
			fmt.Println(t.Render())
		case "csv":
			fmt.Print(t.CSV())
		case "json":
			b, err := t.MarshalJSON()
			if err != nil {
				return err
			}
			fmt.Println(string(b))
		}
		if s := t.ErrorSummary(); s != "" {
			cellsFailed = true
			fmt.Fprint(os.Stderr, "mfutables: ", s)
		}
		return nil
	}
	generate := func(get func() (*tables.Table, error)) error {
		start := time.Now()
		t, err := get()
		if err != nil {
			return err
		}
		log.Debug("table generated", "table", t.Number, "wall", time.Since(start).Round(time.Millisecond))
		return emit(t)
	}
	done := func() int {
		code := 0
		if scaleSet {
			for _, note := range tables.ScaleNotes() {
				log.Warn(note)
			}
		}
		if *metrics != "" {
			if err := writeMetrics(*metrics, emitted); err != nil {
				return fail(err)
			}
		}
		// End-of-run fault summary: what the injector did, what the
		// retry layer absorbed, what the journal holds.
		var totalRetries int64
		for _, t := range emitted {
			totalRetries += t.Retries
		}
		if totalRetries > 0 {
			log.Info("transient failures retried", "retries", totalRetries)
		}
		if injector != nil {
			for _, line := range injector.Summary() {
				fmt.Fprintln(os.Stderr, "mfutables: faultinject:", line)
			}
		}
		if ckpt != nil {
			log.Info("checkpoint", "loaded", ckpt.Loaded(), "saved", ckpt.Saved())
			if err := ckpt.Close(); err != nil {
				log.Error(err.Error())
				code = 1
			}
		}
		if intr.Interrupted() {
			if *checkpointPath != "" {
				log.Warn("run interrupted; rerun with the same -checkpoint to resume without recomputation")
			} else {
				log.Warn("run interrupted; completed work is lost without -checkpoint")
			}
			code = 1
		}
		if cellsFailed {
			log.Warn("some cells failed; their values render as ERR")
			code = 1
		}
		return code
	}

	if *table == 0 {
		for n := 1; n <= 8; n++ {
			n := n
			if err := generate(func() (*tables.Table, error) { return tables.Get(n) }); err != nil {
				return fail(err)
			}
			if ctx.Err() != nil {
				return done() // interrupted: stop generating, summarize
			}
		}
		if *supplement {
			if err := generate(func() (*tables.Table, error) { return tables.SectionThreeThree(), nil }); err != nil {
				return fail(err)
			}
		}
		return done()
	}
	if err := generate(func() (*tables.Table, error) { return tables.Get(*table) }); err != nil {
		return fail(err)
	}
	return done()
}

// sweepArgs carries the flag subset the sweep mode consumes.
type sweepArgs struct {
	specPath    string
	journalPath string
	format      string
	parallel    int
	limits      core.Limits
	injector    *faultinject.Injector
	intr        *cli.Interrupt
}

// runSweep is -sweep mode: parse the spec, run the design-space sweep
// through internal/dse, and report the Pareto frontier in the
// requested format. -checkpoint, when given, is the sweep's resume
// journal.
func runSweep(ctx context.Context, log *slog.Logger, a sweepArgs) int {
	fail := func(err error) int {
		log.Error(err.Error())
		return 1
	}
	spec, err := dse.ParseFile(a.specPath)
	if err != nil {
		return fail(err)
	}
	var j *dse.Journal
	if a.journalPath != "" {
		j, err = dse.OpenJournal(a.journalPath)
		if err != nil {
			return fail(err)
		}
		if n := j.Loaded(); n > 0 {
			log.Info("resuming from sweep journal", "path", a.journalPath, "points", n)
		}
	}
	start := time.Now()
	rep, err := dse.Run(ctx, spec, dse.Options{Parallel: a.parallel, Limits: a.limits, Journal: j})
	if err != nil {
		if j != nil {
			j.Close()
		}
		return fail(err)
	}
	log.Debug("sweep complete", "points", rep.Deduped, "simulated", rep.Simulated,
		"wall", time.Since(start).Round(time.Millisecond))

	code := 0
	switch a.format {
	case "text":
		fmt.Print(rep.Render())
	case "csv":
		out, err := rep.CSV()
		if err != nil {
			return fail(err)
		}
		fmt.Print(out)
	case "json":
		b, err := rep.JSON()
		if err != nil {
			return fail(err)
		}
		fmt.Println(string(b))
	}

	if a.injector != nil {
		for _, line := range a.injector.Summary() {
			fmt.Fprintln(os.Stderr, "mfutables: faultinject:", line)
		}
	}
	if j != nil {
		log.Info("sweep journal", "loaded", j.Loaded(), "saved", j.Saved())
		if err := j.Close(); err != nil {
			log.Error(err.Error())
			code = 1
		}
	}
	if a.intr.Interrupted() {
		if a.journalPath != "" {
			log.Warn("sweep interrupted; rerun with the same -checkpoint to resume without recomputation")
		} else {
			log.Warn("sweep interrupted; completed points are lost without -checkpoint")
		}
		code = 1
	}
	if rep.Failed > 0 {
		log.Warn("some sweep points failed; see their err fields", "failed", rep.Failed)
		code = 1
	}
	return code
}

// writeMetrics encodes the stall breakdowns of every emitted table to
// path: CSV when the filename says so, JSON otherwise.
func writeMetrics(path string, ts []*tables.Table) error {
	var data []byte
	if strings.HasSuffix(strings.ToLower(path), ".csv") {
		data = []byte(tables.MetricsCSV(ts))
	} else {
		b, err := tables.MetricsJSON(ts)
		if err != nil {
			return err
		}
		data = append(b, '\n')
	}
	return atomicio.WriteFile("write.metrics", path, data)
}
