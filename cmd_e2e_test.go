package mfup_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestCommandLineTools builds and exercises the four binaries end to
// end: the deliverable the README's quick-start commands promise.
// Skipped under -short (it shells out to the Go toolchain).
func TestCommandLineTools(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end CLI test skipped in -short mode")
	}
	bindir := t.TempDir()
	build := func(name string) string {
		t.Helper()
		bin := filepath.Join(bindir, name)
		out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+name).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, out)
		}
		return bin
	}
	runBin := func(bin string, args ...string) string {
		t.Helper()
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
		}
		return string(out)
	}

	mfusim := build("mfusim")
	out := runBin(mfusim, "-machine", "cray", "-loops", "5,12")
	if !strings.Contains(out, "LFK 5") || !strings.Contains(out, "harmonic mean") {
		t.Errorf("mfusim output unexpected:\n%s", out)
	}
	out = runBin(mfusim, "-machine", "ruu", "-units", "2", "-ruu", "30", "-bus", "1bus", "-loops", "scalar")
	if !strings.Contains(out, "RUU(2 units, 30 entries, 1-Bus)") {
		t.Errorf("mfusim ruu output unexpected:\n%s", out)
	}
	out = runBin(mfusim, "-machine", "vector", "-loops", "vector")
	if !strings.Contains(out, "Vector, M11BR5") {
		t.Errorf("mfusim vector output unexpected:\n%s", out)
	}
	out = runBin(mfusim, "-machine", "cray", "-loops", "5", "-stats")
	if !strings.Contains(out, "stall-reason breakdown") ||
		!strings.Contains(out, "result-bus") || !strings.Contains(out, "drain") {
		t.Errorf("mfusim -stats breakdown missing:\n%s", out)
	}
	// Attaching the probe must not change the simulated rate.
	plain := runBin(mfusim, "-machine", "cray", "-loops", "5")
	if !strings.Contains(out, strings.TrimSpace(strings.Split(plain, "\n")[1])) {
		t.Errorf("mfusim -stats changed the per-loop line:\nwith: %s\nwithout: %s", out, plain)
	}

	// Steady-state extrapolation: a billion-iteration loop closes
	// analytically, reporting how much of it was bridged; -scale at a
	// materializable length gives the same numbers with or without the
	// engine; a loop with no steady state reports its fallback.
	out = runBin(mfusim, "-machine", "cray", "-loops", "1", "-scale", "1000000000", "-extrapolate")
	if !strings.Contains(out, "windows bridged analytically") || !strings.Contains(out, "extrapolated: lag") {
		t.Errorf("mfusim -extrapolate missing engine stats:\n%s", out)
	}
	scaled := runBin(mfusim, "-machine", "cray", "-loops", "1", "-scale", "1000")
	scaledE := runBin(mfusim, "-machine", "cray", "-loops", "1", "-scale", "1000", "-extrapolate")
	line := func(s string) string { return strings.Split(s, "\n")[1] }
	if line(scaled) != line(scaledE) {
		t.Errorf("-extrapolate changed a materializable run:\nwith:    %s\nwithout: %s",
			line(scaledE), line(scaled))
	}
	out = runBin(mfusim, "-machine", "cray", "-loops", "13", "-extrapolate")
	if !strings.Contains(out, "full simulation:") {
		t.Errorf("mfusim -extrapolate on LFK 13 missing fallback note:\n%s", out)
	}

	mfutables := build("mfutables")
	out = runBin(mfutables, "-table", "1")
	if !strings.Contains(out, "Table 1.") || !strings.Contains(out, "CRAY-like") {
		t.Errorf("mfutables output unexpected:\n%s", out)
	}
	out = runBin(mfutables, "-table", "2", "-format", "csv")
	if !strings.HasPrefix(out, "Table 2:") || strings.Count(out, "\n") < 16 {
		t.Errorf("mfutables csv output unexpected:\n%s", out)
	}
	out = runBin(mfutables, "-table", "2", "-format", "json")
	if !strings.Contains(out, `"number":2`) {
		t.Errorf("mfutables json output unexpected:\n%s", out)
	}
	// -metrics writes a stall-breakdown sidecar without disturbing the
	// table itself.
	metricsFile := filepath.Join(bindir, "stalls.json")
	out = runBin(mfutables, "-table", "3", "-metrics", metricsFile)
	if out != runBin(mfutables, "-table", "3") {
		t.Error("mfutables -metrics changed the rendered table")
	}
	raw, err := os.ReadFile(metricsFile)
	if err != nil {
		t.Fatalf("reading -metrics output: %v", err)
	}
	var cells []struct {
		Table  int              `json:"table"`
		Slots  int64            `json:"slots"`
		Issued int64            `json:"issued"`
		Stalls map[string]int64 `json:"stalls"`
	}
	if err := json.Unmarshal(raw, &cells); err != nil {
		t.Fatalf("decoding -metrics JSON: %v", err)
	}
	if len(cells) != 64 { // 8 station counts x 4 variations x 2 interconnects
		t.Errorf("metrics file has %d cells, want 64", len(cells))
	}
	for _, c := range cells {
		var stalls int64
		for _, n := range c.Stalls {
			stalls += n
		}
		if c.Table != 3 || c.Issued+stalls != c.Slots {
			t.Errorf("metrics cell ledger broken: %+v (issued+stalls = %d, slots = %d)",
				c, c.Issued+stalls, c.Slots)
		}
	}
	// CSV form, selected by suffix.
	metricsCSV := filepath.Join(bindir, "stalls.csv")
	runBin(mfutables, "-table", "1", "-metrics", metricsCSV)
	if b, err := os.ReadFile(metricsCSV); err != nil || !strings.HasPrefix(string(b), "table,row,column,machine,") {
		t.Errorf("metrics CSV missing or malformed (err %v):\n%.200s", err, b)
	}
	// Scaled, extrapolated table regeneration: kernels that cannot
	// reach the requested length are clamped with a note, the rest
	// extend analytically, and the table still renders every cell.
	out = runBin(mfutables, "-table", "1", "-scale", "100000", "-extrapolate")
	if !strings.Contains(out, "Table 1.") || strings.Contains(out, "ERR") {
		t.Errorf("scaled extrapolated table unexpected:\n%s", out)
	}
	if !strings.Contains(out, "clamped") {
		t.Errorf("scaled run missing clamp notes for the fixed-length kernels:\n%s", out)
	}

	mfulimits := build("mfulimits")
	out = runBin(mfulimits, "-loops", "5,12", "-mode", "pure")
	if !strings.Contains(out, "pseudo-dataflow") || !strings.Contains(out, "harmonic means") {
		t.Errorf("mfulimits output unexpected:\n%s", out)
	}

	mfuasm := build("mfuasm")
	// A user source file, assembled, run, with stats.
	srcFile := filepath.Join(bindir, "prog.cal")
	prog := `
    A1 = 10
    S1 = 2.5
    [A1] = S1
    S2 = [A1]
    S3 = S2 +F S2
`
	if err := os.WriteFile(srcFile, []byte(prog), 0o644); err != nil {
		t.Fatal(err)
	}
	out = runBin(mfuasm, "-file", srcFile, "-run", "-stats")
	if !strings.Contains(out, "executed 5 dynamic instructions") ||
		!strings.Contains(out, "S3 = ") || !strings.Contains(out, "instruction mix") {
		t.Errorf("mfuasm output unexpected:\n%s", out)
	}
	// Built-in kernel dump (vector coding).
	out = runBin(mfuasm, "-kernel", "12", "-vector", "-run")
	if !strings.Contains(out, "lfk12v") {
		t.Errorf("mfuasm kernel output unexpected:\n%s", out)
	}
}

// TestTraceExportE2E exercises the pipeline-event observability
// surface end to end: mfusim -trace/-timeline and mfutables
// -trace-dir, including the unwritable-destination error paths.
func TestTraceExportE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end CLI test skipped in -short mode")
	}
	bindir := t.TempDir()
	build := func(name string) string {
		t.Helper()
		bin := filepath.Join(bindir, name)
		out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+name).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, out)
		}
		return bin
	}
	runBin := func(bin string, args ...string) string {
		t.Helper()
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
		}
		return string(out)
	}
	mfusim := build("mfusim")
	mfutables := build("mfutables")

	// chromeDoc is the trace-event envelope every export must decode as.
	type chromeDoc struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
			PID   int64  `json:"pid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	decode := func(path string) chromeDoc {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc chromeDoc
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("%s is not valid Chrome trace-event JSON: %v", path, err)
		}
		if doc.DisplayTimeUnit != "ms" || len(doc.TraceEvents) == 0 {
			t.Fatalf("%s malformed: unit %q, %d events", path, doc.DisplayTimeUnit, len(doc.TraceEvents))
		}
		return doc
	}

	// mfusim -trace: one process per loop, identical rates to a bare run.
	traceFile := filepath.Join(bindir, "cray.json")
	traced := runBin(mfusim, "-machine", "cray", "-loops", "5,12", "-trace", traceFile)
	plain := runBin(mfusim, "-machine", "cray", "-loops", "5,12")
	if !strings.Contains(traced, strings.TrimSpace(strings.Split(plain, "\n")[1])) {
		t.Errorf("-trace changed the per-loop line:\nwith: %s\nwithout: %s", traced, plain)
	}
	if !strings.Contains(traced, "trace:") || !strings.Contains(traced, "events recorded") {
		t.Errorf("-trace run missing the event census line:\n%s", traced)
	}
	doc := decode(traceFile)
	pids := map[int64]bool{}
	for _, ev := range doc.TraceEvents {
		pids[ev.PID] = true
	}
	if len(pids) != 2 {
		t.Errorf("trace file has %d processes, want 2 (one per loop)", len(pids))
	}

	// mfusim -timeline: a Gantt excerpt with ruler, lanes, and legend.
	out := runBin(mfusim, "-machine", "cray", "-loops", "3", "-timeline", "-timeline-window", "60", "-trace-events", "500")
	for _, want := range []string{"cycle", "legend:", "=", "W", "dropped at the 500-event cap"} {
		if !strings.Contains(out, want) {
			t.Errorf("-timeline output missing %q:\n%s", want, out)
		}
	}

	// The recorder also composes with -stats (probe + recorder at once).
	out = runBin(mfusim, "-machine", "ooo", "-units", "4", "-loops", "5", "-stats", "-timeline")
	if !strings.Contains(out, "stall-reason breakdown") || !strings.Contains(out, "legend:") {
		t.Errorf("-stats with -timeline lost a section:\n%s", out)
	}

	// mfutables -trace-dir: one well-formed file per cell, values intact.
	traceDir := filepath.Join(bindir, "traces")
	withTraces := runBin(mfutables, "-table", "1", "-trace-dir", traceDir, "-trace-events", "256")
	if withTraces != runBin(mfutables, "-table", "1") {
		t.Error("mfutables -trace-dir changed the rendered table")
	}
	files, err := filepath.Glob(filepath.Join(traceDir, "table1_*.json"))
	if err != nil || len(files) != 32 {
		t.Fatalf("trace dir holds %d table1 files (err %v), want 32 (8 rows x 4 columns)", len(files), err)
	}
	decode(files[0])

	// -metrics alongside -trace-dir surfaces the drop telemetry.
	metricsCSV := filepath.Join(bindir, "cells.csv")
	runBin(mfutables, "-table", "1", "-trace-dir", traceDir, "-trace-events", "64", "-metrics", metricsCSV)
	raw, err := os.ReadFile(metricsCSV)
	if err != nil {
		t.Fatal(err)
	}
	head := strings.SplitN(string(raw), "\n", 2)[0]
	if !strings.HasPrefix(head, "table,row,column,machine,") || !strings.Contains(head, "events_dropped") {
		t.Errorf("metrics CSV header missing telemetry columns: %q", head)
	}

	// Error paths: unwritable destinations fail fast with a diagnostic.
	roDir := filepath.Join(bindir, "ro")
	if err := os.Mkdir(roDir, 0o555); err != nil {
		t.Fatal(err)
	}
	if os.Getuid() != 0 { // root ignores mode bits; skip the unwritable cases
		out, err := exec.Command(mfusim, "-machine", "cray", "-loops", "5",
			"-trace", filepath.Join(roDir, "t.json")).CombinedOutput()
		if err == nil || !strings.Contains(string(out), "mfusim:") {
			t.Errorf("unwritable -trace exited %v:\n%s", err, out)
		}
		out, err = exec.Command(mfutables, "-table", "1",
			"-trace-dir", filepath.Join(roDir, "sub")).CombinedOutput()
		if err == nil || !strings.Contains(string(out), "mfutables:") {
			t.Errorf("unwritable -trace-dir exited %v:\n%s", err, out)
		}
	}
}

// TestKillAndResumeE2E is the robustness acceptance test for the
// checkpoint journal: a full mfutables sweep is killed mid-run with
// SIGINT, then rerun against the same -checkpoint journal, and the
// resumed stdout must reproduce the uninterrupted run's stdout byte
// for byte.
func TestKillAndResumeE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end CLI test skipped in -short mode")
	}
	bindir := t.TempDir()
	bin := filepath.Join(bindir, "mfutables")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/mfutables").CombinedOutput(); err != nil {
		t.Fatalf("building mfutables: %v\n%s", err, out)
	}

	// The uninterrupted reference, at a different worker count so the
	// comparison also reasserts worker-count independence.
	ref, err := exec.Command(bin, "-parallel", "2").Output()
	if err != nil {
		t.Fatalf("baseline run failed: %v", err)
	}

	ck := filepath.Join(bindir, "ck.jsonl")
	args := []string{"-parallel", "1", "-checkpoint", ck}

	// Land a SIGINT mid-sweep. If a machine is so fast the run finishes
	// before the signal, shrink the delay and try again with a fresh
	// journal (a completed journal would make the resume vacuous).
	interrupted := false
	delay := 300 * time.Millisecond
	for attempt := 0; attempt < 6 && !interrupted; attempt++ {
		os.Remove(ck)
		cmd := exec.Command(bin, args...)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(delay)
		if err := cmd.Process.Signal(os.Interrupt); err != nil {
			t.Fatal(err)
		}
		err := cmd.Wait()
		if err == nil {
			delay /= 2 // finished before the signal landed; aim earlier
			continue
		}
		interrupted = true
		if ee, ok := err.(*exec.ExitError); ok && ee.ExitCode() == 1 {
			// The handler caught the signal (rather than the default
			// action killing the process before it was installed): the
			// summary must carry the resume hint.
			if !strings.Contains(stderr.String(), "resume") {
				t.Errorf("interrupted run's stderr lacks the resume hint:\n%s", stderr.String())
			}
		}
	}
	if !interrupted {
		t.Skip("could not interrupt mfutables mid-run (machine too fast)")
	}

	// Resume against the journal: stdout must be byte-identical to the
	// uninterrupted reference.
	cmd := exec.Command(bin, append(args, "-v")...)
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("resumed run failed: %v\n%s", err, stderr.String())
	}
	if stdout.String() != string(ref) {
		t.Errorf("resumed output differs from the uninterrupted run (%d vs %d bytes)",
			stdout.Len(), len(ref))
	}
	if info, err := os.Stat(ck); err == nil && info.Size() > 0 &&
		!strings.Contains(stderr.String(), "resuming from checkpoint") {
		t.Errorf("resume did not report the loaded journal:\n%s", stderr.String())
	}

	// A third run serves every cell from the journal and must still
	// render the same bytes.
	out, err := exec.Command(bin, args...).Output()
	if err != nil {
		t.Fatalf("fully-cached run failed: %v", err)
	}
	if string(out) != string(ref) {
		t.Error("fully-cached output differs from the uninterrupted run")
	}
}

// TestCommandLineErrorPaths exercises the failure modes of all four
// binaries: malformed input, unknown flags, nonexistent files, and
// over-budget simulations must each produce a diagnostic on standard
// error and a nonzero exit status — never a panic, never a zero exit.
func TestCommandLineErrorPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end CLI test skipped in -short mode")
	}
	bindir := t.TempDir()
	build := func(name string) string {
		t.Helper()
		bin := filepath.Join(bindir, name)
		out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+name).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, out)
		}
		return bin
	}
	mfusim := build("mfusim")
	mfutables := build("mfutables")
	mfulimits := build("mfulimits")
	mfuasm := build("mfuasm")

	badSrc := filepath.Join(bindir, "bad.cal")
	if err := os.WriteFile(badSrc, []byte("S1 = utter garbage !!\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	livelock, err := filepath.Abs("testdata/livelock.cal")
	if err != nil {
		t.Fatal(err)
	}
	corruptTrace, err := filepath.Abs("testdata/corrupt_opcode.mfutrace")
	if err != nil {
		t.Fatal(err)
	}
	truncatedTrace, err := filepath.Abs("testdata/corrupt_truncated.mfutrace")
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		bin  string
		args []string
		want string // substring of combined output; "" = any
	}{
		{"mfusim unknown flag", mfusim, []string{"-bogus"}, "flag provided but not defined"},
		{"mfusim unknown machine", mfusim, []string{"-machine", "hal9000"}, `unknown machine kind "hal9000"`},
		{"mfusim bad config", mfusim, []string{"-machine", "multi", "-units", "0"}, "mfusim:"},
		{"mfusim bad loop list", mfusim, []string{"-loops", "banana"}, "mfusim:"},
		{"mfusim empty loop segment", mfusim, []string{"-loops", "1,,2"}, "empty segment"},
		{"mfusim empty loop spec", mfusim, []string{"-loops", ""}, "empty loop spec"},
		{"mfusim negative budget", mfusim, []string{"-maxcycles", "-1"}, "negative"},
		{"mfusim negative stations", mfusim, []string{"-machine", "tomasulo", "-stations", "0"}, "reservation station"},
		{"mfusim zero mem", mfusim, []string{"-mem", "0"}, "-mem 0"},
		{"mfusim zero ruu", mfusim, []string{"-machine", "ruu", "-ruu", "0"}, "-ruu 0"},
		{"mfusim units on single-issue", mfusim, []string{"-machine", "cray", "-units", "4"}, "the cray machine is single-issue"},
		{"mfusim ruu crossbar", mfusim, []string{"-machine", "ruu", "-bus", "xbar"}, `bus "xbar"`},
		{"mfusim units past bound", mfusim, []string{"-machine", "multi", "-units", "200000000", "-loops", "1"}, "exceed the limit"},
		{"mfusim mem past bound", mfusim, []string{"-machine", "cray", "-mem", "4611686018427387904", "-loops", "1"}, "exceeds the limit"},
		{"mfusim over budget", mfusim, []string{"-machine", "tomasulo", "-loops", "5", "-maxcycles", "10"}, "cycle budget exceeded"},
		{"mfusim expired timeout", mfusim, []string{"-machine", "cray", "-loops", "5", "-timeout", "1ns"}, "deadline exceeded"},

		{"mfuasm unknown flag", mfuasm, []string{"-bogus"}, "flag provided but not defined"},
		{"mfuasm file and kernel", mfuasm, []string{"-file", "x.cal", "-kernel", "5"}, "conflicts"},
		{"mfuasm vector without kernel", mfuasm, []string{"-file", "x.cal", "-vector"}, "-vector only applies with -kernel"},
		{"mfuasm stats without run", mfuasm, []string{"-kernel", "5", "-stats"}, "-stats requires -run"},
		{"mfuasm trace without run", mfuasm, []string{"-kernel", "5", "-trace"}, "-trace requires -run"},
		{"mfuasm maxsteps without run", mfuasm, []string{"-kernel", "5", "-maxsteps", "10"}, "-maxsteps requires -run"},
		{"mfuasm nonexistent file", mfuasm, []string{"-file", filepath.Join(bindir, "no-such.cal")}, "mfuasm:"},
		{"mfuasm malformed assembly", mfuasm, []string{"-file", badSrc}, "mfuasm:"},
		{"mfuasm bad kernel", mfuasm, []string{"-kernel", "99"}, "mfuasm:"},
		{"mfuasm over budget", mfuasm, []string{"-file", livelock, "-run", "-maxsteps", "10"}, "step limit exceeded"},

		{"mfulimits unknown flag", mfulimits, []string{"-bogus"}, "flag provided but not defined"},
		{"mfulimits nonexistent file", mfulimits, []string{"-file", filepath.Join(bindir, "no-such.cal")}, "mfulimits:"},
		{"mfulimits bad mode", mfulimits, []string{"-mode", "chaotic"}, "mfulimits:"},
		{"mfulimits file and loops", mfulimits, []string{"-file", livelock, "-loops", "5"}, "conflicts"},
		{"mfulimits maxsteps without file", mfulimits, []string{"-maxsteps", "10"}, "-maxsteps only applies with -file"},
		{"mfulimits over budget", mfulimits, []string{"-file", livelock, "-maxsteps", "10"}, "step limit exceeded"},

		{"mfutables unknown flag", mfutables, []string{"-bogus"}, "flag provided but not defined"},
		{"mfutables bad table", mfutables, []string{"-table", "99"}, "out of range"},
		{"mfutables bad format", mfutables, []string{"-table", "1", "-format", "xml"}, "unknown format"},
		{"mfutables negative parallel", mfutables, []string{"-parallel", "-2"}, "negative"},
		{"mfutables supplement with table", mfutables, []string{"-table", "3", "-supplement"}, "conflicts"},
		{"mfutables over budget", mfutables, []string{"-table", "1", "-maxcycles", "50"}, "ERR"},

		{"mfusim tracein nonexistent", mfusim, []string{"-tracein", filepath.Join(bindir, "no-such.mfutrace")}, "mfusim:"},
		{"mfusim tracein corrupt opcode", mfusim, []string{"-tracein", corruptTrace}, "undefined opcode"},
		{"mfusim tracein truncated", mfusim, []string{"-tracein", truncatedTrace}, "mfusim:"},
		{"mfusim tracein with loops", mfusim, []string{"-tracein", corruptTrace, "-loops", "5"}, "conflicts"},
		{"mfusim fault-seed without faults", mfusim, []string{"-fault-seed", "7"}, "-fault-seed needs -faults"},
		{"mfusim bad fault plan", mfusim, []string{"-faults", "sim:frobnicate"}, "unknown fault kind"},
		{"mfusim injected error", mfusim, []string{"-machine", "cray", "-loops", "5", "-faults", "sim:err:at=3"}, "injected fault"},

		{"mfuasm traceout without run", mfuasm, []string{"-kernel", "5", "-traceout", "x.mfutrace"}, "-traceout requires -run"},
		{"mfuasm bad fault plan", mfuasm, []string{"-kernel", "5", "-faults", "nowhere:panic"}, "unknown site"},

		{"mfulimits corrupt trace file", mfulimits, []string{"-file", corruptTrace}, "undefined opcode"},
		{"mfulimits maxsteps with binary trace", mfulimits, []string{"-file", corruptTrace, "-maxsteps", "10"}, "already traced"},

		{"mfutables retry-backoff without retries", mfutables, []string{"-retry-backoff", "1s"}, "-retry-backoff needs -retries"},
		{"mfutables negative retries", mfutables, []string{"-retries", "-1"}, "negative"},
		{"mfutables checkpoint with metrics", mfutables, []string{"-checkpoint", "c.jsonl", "-metrics", "m.json"}, "conflicts"},
		{"mfutables checkpoint with trace-dir", mfutables, []string{"-checkpoint", "c.jsonl", "-trace-dir", "d"}, "conflicts"},
		{"mfutables fault-seed without faults", mfutables, []string{"-fault-seed", "7"}, "-fault-seed needs -faults"},
		{"mfutables sweep with table", mfutables, []string{"-sweep", "s.json", "-table", "1"}, "conflicts"},
		{"mfutables sweep with scale", mfutables, []string{"-sweep", "s.json", "-scale", "100"}, "conflicts"},
		{"mfutables sweep with extrapolate", mfutables, []string{"-sweep", "s.json", "-extrapolate"}, "conflicts"},
		{"mfutables sweep with metrics", mfutables, []string{"-sweep", "s.json", "-metrics", "m.json"}, "conflicts"},
		{"mfutables sweep with timeout", mfutables, []string{"-sweep", "s.json", "-timeout", "1s"}, "conflicts"},
		{"mfutables sweep nonexistent spec", mfutables, []string{"-sweep", filepath.Join(bindir, "no-such.json")}, "mfutables:"},
		{"mfutables bad fault plan", mfutables, []string{"-faults", "sim:err:at=zero"}, "positive count"},
		{"mfutables injected write fault", mfutables, []string{"-table", "2", "-format", "csv", "-metrics", filepath.Join(bindir, "m2.json"), "-faults", "write.metrics:werr"}, "injected permanent failure"},

		{"mfusim zero scale", mfusim, []string{"-machine", "cray", "-loops", "1", "-scale", "0"}, "at least 1"},
		{"mfusim scale with tracein", mfusim, []string{"-tracein", corruptTrace, "-scale", "10"}, "conflicts"},
		{"mfusim scale on vector machine", mfusim, []string{"-machine", "vector", "-scale", "10"}, "does not apply"},
		{"mfusim scale needs extrapolate", mfusim, []string{"-machine", "cray", "-loops", "1", "-scale", "100000"}, "-extrapolate"},
		{"mfusim scale unreachable", mfusim, []string{"-machine", "cray", "-loops", "13", "-scale", "100000", "-extrapolate"}, "analytic extension"},
		{"mfusim scale unreachable without extrapolate", mfusim, []string{"-machine", "cray", "-loops", "13", "-scale", "100000"}, "analytic extension"},
		{"mfusim scale overflows", mfusim, []string{"-machine", "cray", "-loops", "1", "-scale", "4000000000000000000", "-extrapolate"}, "overflow"},
		{"mfusim vector without codings", mfusim, []string{"-machine", "vector", "-loops", "5,6"}, "1, 2, 3, 4, 7, 8, 9, 10, 12"},
		{"mfutables zero scale", mfutables, []string{"-scale", "0"}, "at least 1"},

		{"mfusim timeline-window without timeline", mfusim, []string{"-timeline-window", "40"}, "-timeline-window needs -timeline"},
		{"mfusim trace-events without trace", mfusim, []string{"-trace-events", "100"}, "-trace-events needs -trace or -timeline"},
		{"mfusim negative trace-events", mfusim, []string{"-trace", "x.json", "-trace-events", "-1"}, "negative"},
		{"mfutables trace-events without trace-dir", mfutables, []string{"-trace-events", "100"}, "-trace-events needs -trace-dir"},
		{"mfutables negative trace-events", mfutables, []string{"-trace-dir", "d", "-trace-events", "-1"}, "negative"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out, err := exec.Command(c.bin, c.args...).CombinedOutput()
			if err == nil {
				t.Fatalf("%s %v exited 0; output:\n%s", filepath.Base(c.bin), c.args, out)
			}
			if _, ok := err.(*exec.ExitError); !ok {
				t.Fatalf("%s %v did not run: %v", filepath.Base(c.bin), c.args, err)
			}
			if !strings.Contains(string(out), c.want) {
				t.Errorf("%s %v output missing %q:\n%s", filepath.Base(c.bin), c.args, c.want, out)
			}
		})
	}

	// An over-budget table run still renders every healthy value: the
	// diagnostic summary goes to stderr and names the failed cells.
	t.Run("mfutables degrades gracefully", func(t *testing.T) {
		cmd := exec.Command(mfutables, "-table", "1", "-maxcycles", "50")
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err == nil {
			t.Fatal("over-budget mfutables exited 0")
		}
		if !strings.Contains(stdout.String(), "Table 1.") {
			t.Errorf("table skeleton missing from stdout:\n%s", stdout.String())
		}
		if !strings.Contains(stderr.String(), "cell(s) failed") ||
			!strings.Contains(stderr.String(), "some cells failed") {
			t.Errorf("stderr missing diagnostic summary:\n%s", stderr.String())
		}
	})

	// And a generous budget must not disturb the healthy path.
	t.Run("mfutables healthy under budget", func(t *testing.T) {
		out, err := exec.Command(mfutables, "-table", "1", "-maxcycles", "100000000", "-stallcycles", "1000000").CombinedOutput()
		if err != nil {
			t.Fatalf("healthy guarded run failed: %v\n%s", err, out)
		}
		if strings.Contains(string(out), "ERR") {
			t.Errorf("healthy guarded run rendered ERR cells:\n%s", out)
		}
	})
}

// TestSweepE2E drives mfutables -sweep end to end: a small extrapolated
// design-space sweep renders a Pareto frontier in every format, and a
// second run against the same -checkpoint journal simulates nothing.
func TestSweepE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end CLI test skipped in -short mode")
	}
	bindir := t.TempDir()
	bin := filepath.Join(bindir, "mfutables")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/mfutables").CombinedOutput(); err != nil {
		t.Fatalf("building mfutables: %v\n%s", err, out)
	}
	spec := filepath.Join(bindir, "sweep.json")
	if err := os.WriteFile(spec, []byte(`{
		"base": {"kind": "ooo", "mem": 11, "br": 5},
		"axes": {"width": [1, 2, 4], "bus": ["nbus", "1bus"]},
		"scale": 50000, "extrapolate": true
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(bindir, "points.jsonl")

	run := func(args ...string) string {
		t.Helper()
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("mfutables %v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	out := run("-sweep", spec, "-checkpoint", journal)
	if !strings.Contains(out, "Pareto frontier") || !strings.Contains(out, "frontier agreement") {
		t.Fatalf("sweep text report missing sections:\n%s", out)
	}

	// JSON form decodes into the report document, and the journal
	// resume serves every point without simulation.
	out = run("-sweep", spec, "-checkpoint", journal, "-format", "json")
	var rep struct {
		Deduped     int   `json:"deduped"`
		Simulated   int   `json:"simulated"`
		FromJournal int   `json:"fromjournal"`
		FrontierIdx []int `json:"frontier"`
		Points      []struct {
			Rate float64 `json:"rate"`
		} `json:"points"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("decoding sweep JSON: %v\n%.400s", err, out)
	}
	if rep.Simulated != 0 || rep.FromJournal != rep.Deduped || rep.Deduped != 6 {
		t.Fatalf("resume tallies wrong: %+v", rep)
	}

	// CSV: one row per point plus the header.
	out = run("-sweep", spec, "-checkpoint", journal, "-format", "csv")
	if !strings.HasPrefix(out, "cost,rate,model,") || strings.Count(out, "\n") != 7 {
		t.Fatalf("sweep CSV unexpected:\n%s", out)
	}
}
