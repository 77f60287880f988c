// Command mfusim runs one machine configuration over a set of
// Livermore loops and reports per-loop and harmonic-mean issue rates.
//
// Usage examples:
//
//	mfusim -machine cray -mem 11 -br 5 -loops scalar
//	mfusim -machine multi -units 4 -bus nbus -loops all
//	mfusim -machine ruu -units 3 -ruu 40 -bus 1bus -loops vector
//	mfusim -machine ooo -units 8 -loops 1,5,13
//	mfusim -machine cray -loops scalar -stats
//	mfusim -machine cray -loops 1 -scale 1000000000 -extrapolate
//
// -scale n rebuilds every selected kernel at loop length n instead of
// the paper defaults. -extrapolate enables the steady-state
// extrapolation engine: each loop's repetitive middle is closed
// analytically from a short ladder of reference runs, making the cost
// of a loop independent of its iteration count while producing cycle
// counts, issue rates, and stall breakdowns bit-identical to full
// simulation. Loops with no detectable steady state fall back to full
// simulation automatically. A -scale beyond what a kernel's memory
// layout can materialize requires -extrapolate, which accounts for
// the surplus iterations analytically; a kernel with no steady state
// to extend (LFK 13) cannot go past its layout at all, and mfusim
// fails naming the reason.
//
// -stats attaches a stall-attribution probe and, after the rates,
// prints a per-loop breakdown of where the machine's issue slots
// went: one column per stall reason (RAW, WAW, structural, result
// bus, memory bank, branch, buffer, issue width, drain). The probe
// observes without perturbing — rates are identical with and without
// it.
//
// -trace FILE records every instruction's pipeline lifecycle — fetch,
// issue, functional-unit occupancy, result-bus acquisition,
// writeback, branch resolution, commit — and writes the runs as
// Chrome trace-event JSON, loadable directly in ui.perfetto.dev or
// chrome://tracing. -timeline prints the same record as a plain-text
// Gantt chart per loop. -trace-events caps the events kept per loop
// (the overflow is counted and reported, never accumulated);
// -timeline-window widens the timeline's cycle window. Like the
// probe, the recorder observes without perturbing: rates are
// identical with and without it.
//
// -tracein FILE runs a binary .mfutrace file (produced by mfuasm
// -traceout) instead of the built-in loops; -faults PLAN arms the
// deterministic fault-injection layer (internal/faultinject), with
// placement seeded by -fault-seed.
//
// The machine flags name an internal/machdef spec, validated and
// built there like every other machine in the suite. An invalid
// configuration — a -mem, -br, -units, -ruu or -stations value below
// 1, -units above 1 on a single-issue kind, an unknown -bus, a
// crossbar on the RUU machine — or a simulation that exceeds
// -maxcycles, -stallcycles, or -timeout, or whose extrapolated totals
// would overflow, produces a one-line diagnostic on standard error and
// exit status 1.
//
// Diagnostics go through a shared logger: -v lowers its level to
// debug, and MFU_LOG (debug | info | warn | error) overrides it.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"mfup/internal/atomicio"
	"mfup/internal/cli"
	"mfup/internal/core"
	"mfup/internal/events"
	"mfup/internal/faultinject"
	"mfup/internal/loops"
	"mfup/internal/machdef"
	"mfup/internal/probe"
	"mfup/internal/stats"
	"mfup/internal/trace"
)

// log is the shared tool logger; main wires it up before first use.
var log = cli.NewLogger("mfusim", false)

func main() {
	var (
		machine     = flag.String("machine", "cray", "simple | serialmem | nonseg | cray | scoreboard | tomasulo | multi | ooo | ruu | vector")
		mem         = flag.Int("mem", 11, "memory access time in cycles (paper: 11 or 5)")
		br          = flag.Int("br", 5, "branch execution time in cycles (paper: 5 or 2)")
		units       = flag.Int("units", 1, "issue units/stations (multi, ooo, ruu)")
		busKind     = flag.String("bus", "nbus", "result-bus interconnect: nbus | 1bus | xbar")
		ruuSize     = flag.Int("ruu", 50, "RUU entries (ruu machine)")
		stations    = flag.Int("stations", 4, "reservation stations per unit (tomasulo machine)")
		which       = flag.String("loops", "all", `"all", "scalar", "vector", or comma-separated kernel numbers`)
		scale       = flag.Int("scale", 0, "loop length for every selected kernel (0 = paper defaults); lengths beyond a kernel's memory layout need -extrapolate")
		extrap      = flag.Bool("extrapolate", false, "close each loop's steady-state middle analytically instead of simulating every iteration")
		showStats   = flag.Bool("stats", false, "print a per-loop stall-reason breakdown after the rates")
		maxCycles   = flag.Int64("maxcycles", 0, "simulated-cycle budget per loop; 0 = unlimited")
		stallCycles = flag.Int64("stallcycles", 0, "cycles without forward progress before the run is declared stalled; 0 = off")
		timeout     = flag.Duration("timeout", 0, "wall-clock deadline per loop (e.g. 30s); 0 = none")

		traceFile      = flag.String("trace", "", "write per-instruction pipeline events to this file as Chrome trace-event JSON (Perfetto)")
		timeline       = flag.Bool("timeline", false, "print a per-loop plain-text pipeline timeline after the rates")
		timelineWindow = flag.Int("timeline-window", 0, "cycle columns in the -timeline rendering; 0 = 120")
		traceEvents    = flag.Int("trace-events", 0, "events kept per loop for -trace/-timeline; 0 = 65536, overflow is dropped and counted")
		traceIn        = flag.String("tracein", "", "run a binary .mfutrace file (see mfuasm -traceout) instead of built-in loops")
		faults         = flag.String("faults", "", "fault-injection plan, e.g. 'sim:panic:at=1000' (chaos testing)")
		faultSeed      = flag.Int64("fault-seed", 1, "seed for fault placement")
		verbose        = flag.Bool("v", false, "verbose logging (debug level) on standard error")
	)
	flag.Parse()
	log = cli.NewLogger("mfusim", *verbose)
	loopsSet, seedSet, scaleSet := false, false, false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "loops":
			loopsSet = true
		case "fault-seed":
			seedSet = true
		case "scale":
			scaleSet = true
		}
	})

	tracing := *traceFile != "" || *timeline
	switch {
	case *maxCycles < 0:
		fail(fmt.Errorf("-maxcycles %d is negative (0 = unlimited)", *maxCycles))
	case *stallCycles < 0:
		fail(fmt.Errorf("-stallcycles %d is negative (0 = off)", *stallCycles))
	case *timeout < 0:
		fail(fmt.Errorf("-timeout %v is negative (0 = none)", *timeout))
	case *traceEvents < 0:
		fail(fmt.Errorf("-trace-events %d is negative (0 = default cap)", *traceEvents))
	case *traceEvents > 0 && !tracing:
		fail(fmt.Errorf("-trace-events needs -trace or -timeline"))
	case *timelineWindow < 0:
		fail(fmt.Errorf("-timeline-window %d is negative (0 = default width)", *timelineWindow))
	case *timelineWindow > 0 && !*timeline:
		fail(fmt.Errorf("-timeline-window needs -timeline"))
	case *traceIn != "" && loopsSet:
		fail(fmt.Errorf("-tracein conflicts with -loops: the trace file is the workload"))
	case seedSet && *faults == "":
		fail(fmt.Errorf("-fault-seed needs -faults"))
	case scaleSet && *scale < 1:
		fail(fmt.Errorf("-scale %d: loop length must be at least 1", *scale))
	case scaleSet && *traceIn != "":
		fail(fmt.Errorf("-scale conflicts with -tracein: the trace file fixes the workload"))
	}

	if *faults != "" {
		plan, err := faultinject.ParsePlan(*faults, *faultSeed)
		if err != nil {
			fail(err)
		}
		faultinject.Activate(faultinject.New(plan))
		defer faultinject.Deactivate()
		log.Warn("fault injection active; failures below may be deliberate", "plan", *faults, "seed", *faultSeed)
	}

	kernels, err := cli.SelectLoops(*which)
	if err != nil {
		fail(err)
	}
	// The machine flags are a machdef.Spec. machdef reads 0 as "the
	// default", so a flag below 1 is refused here instead, and it
	// ignores the bus of a single-issue kind, so the bus is parsed here
	// too: a bad value is a flag error whatever the kind.
	for _, f := range []struct {
		name string
		v    int
		want string
	}{
		{"mem", *mem, "memory access time must be at least 1 cycle"},
		{"br", *br, "branch execution time must be at least 1 cycle"},
		{"units", *units, "need at least one issue unit"},
		{"ruu", *ruuSize, "need at least one RUU entry"},
		{"stations", *stations, "need at least one reservation station per unit"},
	} {
		if f.v < 1 {
			fail(fmt.Errorf("-%s %d: %s", f.name, f.v, f.want))
		}
	}
	if _, err := cli.ParseBusKind(*busKind); err != nil {
		fail(err)
	}
	spec, err := machdef.Canonicalize(machdef.Spec{
		Kind: *machine, Mem: *mem, Br: *br, Width: *units, Bus: *busKind, RUU: *ruuSize, Stations: *stations,
	})
	if err != nil {
		fail(err)
	}
	cfg, err := spec.Config()
	if err != nil {
		fail(err)
	}
	m, err := spec.New()
	if err != nil {
		fail(err)
	}

	if spec.Kind == "vector" && scaleSet {
		fail(fmt.Errorf("-scale does not apply to the vector machine: the vector codings are fixed at the paper lengths"))
	}
	if spec.Kind == "vector" && *traceIn == "" {
		// The vector machine runs the vectorized codings.
		if kernels, err = loops.VectorCodings(kernels); err != nil {
			fail(err)
		}
	}

	// -scale rebuilds the selected kernels at the requested loop
	// length. A length past a kernel's memory layout materializes the
	// layout maximum; the remainder becomes virtual iterations for the
	// extrapolation engine to account for analytically.
	scaled := core.ScaleKernels(kernels, *scale)
	if scaled.Err != nil {
		fail(scaled.Err)
	}
	for _, k := range scaled.Kernels {
		if scaled.Virtual[k.SharedTrace().Name] > 0 && !*extrap {
			fail(fmt.Errorf("%s: -scale %d exceeds the %d iterations the memory layout supports; -extrapolate can extend it analytically",
				k, *scale, k.N))
		}
	}
	kernels = scaled.Kernels

	// The workload: the built-in loops, or one externally assembled
	// binary trace.
	type workItem struct {
		label string
		tr    *trace.Trace
	}
	var work []workItem
	if *traceIn != "" {
		tr, err := readTraceFile(*traceIn)
		if err != nil {
			fail(err)
		}
		work = append(work, workItem{label: fmt.Sprintf("%s (%s)", tr.Name, *traceIn), tr: tr})
	} else {
		for _, k := range kernels {
			work = append(work, workItem{label: k.String(), tr: k.SharedTrace()})
		}
	}

	var engine *core.Extrapolator
	if *extrap {
		engine = core.Extrapolate(m).WithVirtual(scaled.Virtual)
		m = engine
	}

	var rec *events.Recorder
	if tracing {
		rec = events.NewRecorder(*traceEvents)
		m.SetRecorder(rec)
	}

	// SIGINT/SIGTERM stops cleanly between loops: the current loop
	// finishes, the rest are skipped, and the exit status is nonzero.
	// A second signal gets the default kill behavior.
	intr := cli.NotifyInterrupt(context.Background(), log,
		"interrupted; stopping after the current loop (signal again to kill)")
	defer intr.Stop()

	fmt.Printf("%s, %s\n", m.Name(), cfg.Name())
	var rates []float64
	var breakdowns []*probe.Counters
	for _, w := range work {
		if intr.Interrupted() {
			os.Exit(1)
		}
		lim := core.Limits{MaxCycles: *maxCycles, StallCycles: *stallCycles}
		if *timeout > 0 {
			lim.Deadline = time.Now().Add(*timeout)
		}
		var c *probe.Counters
		if *showStats {
			c = new(probe.Counters)
			m.SetProbe(c)
		}
		r, err := m.RunChecked(w.tr, lim)
		if c != nil {
			m.SetProbe(nil)
		}
		if err != nil {
			fail(err)
		}
		if rate := r.IssueRate(); !(rate > 0) {
			// A non-positive rate would poison the harmonic mean (NaN);
			// report it as the failure it is rather than printing NaN.
			fail(fmt.Errorf("%s: non-positive issue rate %g (%d instructions in %d cycles)",
				w.label, rate, r.Instructions, r.Cycles))
		}
		rates = append(rates, r.IssueRate())
		breakdowns = append(breakdowns, c)
		fmt.Printf("  %-38s %8d instr %9d cycles  %.3f/cycle\n",
			w.label, r.Instructions, r.Cycles, r.IssueRate())
		if engine != nil {
			if s := engine.Stats(); s.Engaged {
				what := "windows"
				if s.Order == 2 {
					what = "outer iterations"
				}
				fmt.Printf("    extrapolated: lag %d, %d of %d %s bridged analytically, %d ops simulated\n",
					s.Lag, s.Skipped, s.Windows, what, s.SimulatedOps)
			} else {
				fmt.Printf("    full simulation: %s\n", s.Reason)
			}
		}
	}
	fmt.Printf("harmonic mean issue rate: %.3f instructions/cycle\n", stats.HarmonicMean(rates))
	if rec != nil {
		fmt.Printf("trace: %d events recorded, %d dropped at the %d-event cap\n",
			rec.Events(), rec.Dropped(), cap0(*traceEvents))
	}

	if *timeline {
		opt := events.TimelineOptions{MaxCycles: *timelineWindow}
		for i := range rec.Runs() {
			fmt.Println()
			fmt.Print(events.Timeline(&rec.Runs()[i], opt))
		}
	}

	if *traceFile != "" {
		if err := writeTrace(*traceFile, rec); err != nil {
			fail(err)
		}
		log.Debug("trace written", "file", *traceFile, "events", rec.Events())
	}

	if *showStats {
		fmt.Printf("\nstall-reason breakdown (issue slots):\n")
		fmt.Printf("  %-12s %9s %9s", "loop", "issued", "slots")
		for _, r := range probe.Reasons() {
			fmt.Printf(" %*s", colWidth(r), r)
		}
		fmt.Println()
		for i, w := range work {
			c := breakdowns[i]
			fmt.Printf("  %-12s %9d %9d", w.tr.Name, c.Issued, c.Slots)
			for _, r := range probe.Reasons() {
				fmt.Printf(" %*d", colWidth(r), c.Stalls[r])
			}
			fmt.Println()
		}
	}
}

// cap0 maps the -trace-events zero default to the effective cap.
func cap0(n int) int {
	if n <= 0 {
		return events.DefaultCap
	}
	return n
}

// writeTrace writes the recorded runs as Chrome trace-event JSON. The
// write is atomic (temp+rename): a crash or injected fault mid-export
// never leaves a torn file at path.
func writeTrace(path string, rec *events.Recorder) error {
	f, err := atomicio.Create("write.trace", path)
	if err != nil {
		return err
	}
	defer f.Abort()
	if err := events.WriteChrome(f, rec); err != nil {
		return err
	}
	return f.Commit()
}

// readTraceFile decodes one binary .mfutrace file. Decode errors —
// truncation, corruption, out-of-range fields — come back as
// structured diagnostics, never panics; the mutation fuzzer holds the
// decoder to that.
func readTraceFile(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := trace.ReadBinary(bufio.NewReader(f))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tr, nil
}

// colWidth sizes a breakdown column to its reason-name header.
func colWidth(r probe.Reason) int {
	if n := len(r.String()); n > 7 {
		return n
	}
	return 7
}

// fail reports err through the shared logger and exits nonzero.
func fail(err error) {
	log.Error(err.Error())
	os.Exit(1)
}
