// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives the simulator stack in process through the
// public functions of internal/tables, internal/dse, internal/serve
// and internal/cluster, checks every output it produces, and prints
// one JSON result line last:
//
//	go run . --workload tables --seed 1 --seconds 10 --trace 0
//
// Workloads are tables, sweep and service (and "all", which runs the
// three in turn). With --trace 1 the run records spans around each
// layer's public calls and reports per-layer metrics instead of the
// end-to-end ones. See README.md for the workload and metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// DefaultSeed and HeldOutSeed are the recorded workload seeds: tune
// against the first, confirm a claim on the second.
const (
	DefaultSeed = 1
	HeldOutSeed = 7919
)

// config is one invocation's settings, shared by every workload.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	workers int    // worker pools and connection counts: nproc
	outDir  string // span files, reports and scratch journals
	tr      *Tracer
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run hands back to main.
type outcome struct {
	attempted int64
	failed    int64
	problems  []string          // output-check failures, for stderr
	e2e       map[string]metric // untraced end-to-end metrics
	named     []namedReading    // the same readings under their workload-specific names
	layers    map[string]float64
}

// namedReading is a workload-specific reading printed in the human
// report, e.g. regen_p50_s on tables.
type namedReading struct {
	name  string
	value float64
	unit  string
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(name string, value float64, unit string) {
	o.named = append(o.named, namedReading{name, value, unit})
}

type workloadFunc func(cfg *config) (*outcome, error)

var workloads = map[string]workloadFunc{
	"tables":  runTables,
	"sweep":   runSweep,
	"service": runService,
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "tables", "tables | sweep | service | all")
	seed := fs.Int64("seed", DefaultSeed, "workload seed (held-out seed: 7919)")
	seconds := fs.Int("seconds", 10, "measured seconds per workload")
	trace := fs.Int("trace", 0, "1 = traced run with per-layer metrics")
	outDir := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for span files and scratch journals")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds %d: need at least 1", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}
	names := []string{*name}
	if *name == "all" {
		names = []string{"tables", "sweep", "service"}
	} else if workloads[*name] == nil {
		return fmt.Errorf("unknown workload %q (want tables, sweep, service or all)", *name)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}

	final := result{Correct: true, Metrics: map[string]metric{}}
	for _, wl := range names {
		cfg := &config{
			seed:    *seed,
			seconds: time.Duration(*seconds) * time.Second,
			trace:   *trace == 1,
			workers: runtime.NumCPU(),
			outDir:  *outDir,
		}
		if cfg.trace {
			cfg.tr = NewTracer()
		}
		out, err := workloads[wl](cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", wl, err)
		}
		for _, p := range out.problems {
			fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", wl, p)
		}
		metrics := out.e2e
		if cfg.trace {
			metrics = layerMetrics(out.layers)
			if err := writeTraceReport(cfg, wl, out.layers, stdout); err != nil {
				return err
			}
		} else {
			printReport(stdout, wl, cfg, out)
		}
		final.Correct = final.Correct && out.failed == 0
		final.Attempted += out.attempted
		final.Failed += out.failed
		for k, v := range metrics {
			if len(names) > 1 {
				k = wl + "." + k
			}
			final.Metrics[k] = v
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// printReport writes the human-readable end-to-end report: the
// declared metrics and the workload-specific names they stand for.
func printReport(w io.Writer, wl string, cfg *config, out *outcome) {
	fmt.Fprintf(w, "== %s (seed %d, %s, %d workers) ==\n", wl, cfg.seed, cfg.seconds, cfg.workers)
	keys := make([]string, 0, len(out.e2e))
	for k := range out.e2e {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-16s %14.4f %s\n", k, out.e2e[k].Value, out.e2e[k].Unit)
	}
	for _, r := range out.named {
		fmt.Fprintf(w, "  %-16s %14.4f %s\n", r.name, r.value, r.unit)
	}
	ratio := 0.0
	if out.attempted > 0 {
		ratio = float64(out.failed) / float64(out.attempted)
	}
	fmt.Fprintf(w, "  %-16s %14.4f ratio (%d of %d)\n", "fail_ratio", ratio, out.failed, out.attempted)
	if len(out.problems) > 0 {
		fmt.Fprintf(w, "  checks failed, first: %s\n", out.problems[0])
	}
}

// e2eMetrics assembles the end-to-end metric set BENCHMARK.json declares.
func e2eMetrics(setup, p50, tail, warm time.Duration, rssMB float64) map[string]metric {
	return map[string]metric{
		"setup_s":     {setup.Seconds(), "s"},
		"p50_ms":      {ms(p50), "ms"},
		"tail_ms":     {ms(tail), "ms"},
		"warm_ms":     {ms(warm), "ms"},
		"peak_rss_mb": {rssMB, "MB"},
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
