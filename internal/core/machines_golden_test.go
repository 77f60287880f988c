package core

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"mfup/internal/bus"
	"mfup/internal/faultinject"
	"mfup/internal/isa"
	"mfup/internal/loops"
	"mfup/internal/probe"
	"mfup/internal/trace"
)

// goldenMachine is one fixed machine definition pinned by
// testdata/machines.golden.
type goldenMachine struct {
	kind string // multi, ooo, ruu or tomasulo
	cfg  Config
}

func (g goldenMachine) build() (Machine, error) {
	switch g.kind {
	case "multi":
		return NewMultiIssue(g.cfg)
	case "ooo":
		return NewMultiIssueOOO(g.cfg)
	case "ruu":
		return NewRUU(g.cfg)
	case "tomasulo":
		return NewTomasulo(g.cfg)
	}
	return nil, fmt.Errorf("unknown kind %q", g.kind)
}

func (g goldenMachine) String() string {
	c := g.cfg
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s", g.kind, c.Name())
	if g.kind != "tomasulo" {
		fmt.Fprintf(&b, " w%d %s", c.IssueUnits, c.Bus)
	}
	if c.RUUSize > 0 {
		fmt.Fprintf(&b, " ruu%d", c.RUUSize)
	}
	if c.MemBanks > 0 {
		fmt.Fprintf(&b, " banks%d", c.MemBanks)
	}
	for u, n := range c.FUCount {
		if n > 1 {
			fmt.Fprintf(&b, " fucount.%s=%d", isa.Unit(u), n)
		}
	}
	for u, l := range c.FULat {
		if l > 0 {
			fmt.Fprintf(&b, " fulat.%s=%d", isa.Unit(u), l)
		}
	}
	if c.PerfectBranches {
		b.WriteString(" perfect")
	}
	return b.String()
}

// goldenMachines lists the pinned definitions: multi and ooo at every
// width and bus, ruu at every width, bus and size, and tomasulo at
// four station counts. The memory/branch latencies, memory banks and
// unit overrides rotate with co-prime periods so that they cross the
// structural axes rather than track them. Every latency stays below
// 64 cycles.
func goldenMachines() []goldenMachine {
	latencies := [][2]int{{11, 5}, {5, 2}, {20, 5}, {11, 2}, {5, 5}, {20, 2}}
	var out []goldenMachine
	add := func(kind string, cfg Config) {
		i := len(out)
		cfg.MemLatency, cfg.BranchLatency = latencies[i%6][0], latencies[i%6][1]
		cfg.MemBanks = []int{0, 2, 4, 8}[(i/2)%4]
		switch i % 7 {
		case 1:
			cfg.FUCount[isa.FloatMul] = 2
		case 2:
			cfg.FUCount[isa.Memory] = 2
		case 3:
			cfg.FULat[isa.FloatAdd], cfg.FULat[isa.FloatMul] = 3, 10
		case 4:
			cfg.PerfectBranches = true
		case 6:
			cfg.FULat[isa.FloatAdd] = 3
			cfg.PerfectBranches = true
		}
		out = append(out, goldenMachine{kind, cfg})
	}
	widths := []int{1, 2, 3, 5, 8, 64}
	for _, kind := range []string{"multi", "ooo"} {
		for _, w := range widths {
			for _, b := range []bus.Kind{bus.XBar, bus.BusN, bus.Bus1} {
				add(kind, Config{IssueUnits: w, Bus: b})
			}
		}
	}
	for _, w := range widths {
		for _, b := range []bus.Kind{bus.BusN, bus.Bus1} {
			for _, size := range []int{w, 10, 25, 100, 1000} {
				if size < w {
					continue
				}
				add("ruu", Config{IssueUnits: w, Bus: b, RUUSize: size})
			}
		}
	}
	for _, stations := range []int{1, 2, 4, 10, 1, 2, 4, 10} {
		add("tomasulo", Config{RUUSize: stations})
	}
	return out
}

// goldenLine runs one definition over the 14 kernels at paper length,
// unobserved and then with a probe.Counters attached, and renders the
// cycle counts and a SHA-256 of the per-kernel counter ledgers.
func goldenLine(g goldenMachine, traces []*trace.Trace) (string, error) {
	m, err := g.build()
	if err != nil {
		return "", err
	}
	cycles := make([]string, len(traces))
	ledger := sha256.New()
	for i, tr := range traces {
		r, err := m.RunChecked(tr, Limits{})
		if err != nil {
			return "", err
		}
		var c probe.Counters
		m.SetProbe(&c)
		observed, err := m.RunChecked(tr, Limits{})
		m.SetProbe(nil)
		if err != nil {
			return "", err
		}
		if observed != r {
			return "", fmt.Errorf("%s: observed %+v, unobserved %+v", tr.Name, observed, r)
		}
		if err := c.Check(); err != nil {
			return "", fmt.Errorf("%s: %v", tr.Name, err)
		}
		js, err := json.Marshal(&c)
		if err != nil {
			return "", err
		}
		ledger.Write(js)
		ledger.Write([]byte{'\n'})
		cycles[i] = fmt.Sprint(r.Cycles)
	}
	return fmt.Sprintf("%s | cycles %s | ledger %x", g, strings.Join(cycles, " "), ledger.Sum(nil)), nil
}

// goldenOutcome renders the result of one run that may fail: the
// cycle count, or the full error with its in-flight snapshot.
func goldenOutcome(m Machine, tr *trace.Trace, lim Limits) string {
	r, err := m.RunChecked(tr, lim)
	var se *SimError
	switch {
	case errors.As(err, &se):
		return fmt.Sprintf("%q", se.Detail())
	case err != nil:
		return fmt.Sprintf("%q", err.Error())
	}
	return fmt.Sprintf("ok %d cycles", r.Cycles)
}

// machinesGolden renders testdata/machines.golden.
func machinesGolden(t *testing.T) string {
	t.Helper()
	var traces []*trace.Trace
	for _, k := range loops.All() {
		traces = append(traces, k.SharedTrace())
	}
	defs := goldenMachines()
	lines := make([]string, len(defs))
	errs := make([]error, len(defs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < min(runtime.GOMAXPROCS(0), 4); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				lines[i], errs[i] = goldenLine(defs[i], traces)
			}
		}()
	}
	for i := range defs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", defs[i], err)
		}
	}

	var b strings.Builder
	b.WriteString("# Cycle counts over LFK 1-14 at paper length and a SHA-256 of the\n")
	b.WriteString("# per-kernel probe.Counters ledgers (JSON, one line per kernel).\n")
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}

	// Guard outcomes on LFK 1: a cycle budget and a stall watchdog
	// small enough to trip (multi computes issue times directly and
	// ignores the watchdog), then one injected error per kind, which
	// pins the cycle and trace position of the guard's Nth Tick.
	b.WriteString("# Guard outcomes on LFK 1.\n")
	lfk1 := traces[0]
	slow := Config{MemLatency: 20, BranchLatency: 5}
	limited := []goldenMachine{
		{"multi", slow.WithIssue(2, bus.BusN)},
		{"ooo", slow.WithIssue(1, bus.BusN)},
		{"ruu", slow.WithIssue(2, bus.Bus1).WithRUU(2)},
	}
	for _, g := range limited {
		m, err := g.build()
		if err != nil {
			t.Fatalf("%s: %v", g, err)
		}
		for _, lim := range []Limits{{MaxCycles: 700}, {StallCycles: 12}} {
			fmt.Fprintf(&b, "%s maxcycles=%d stallcycles=%d: %s\n", g, lim.MaxCycles, lim.StallCycles, goldenOutcome(m, lfk1, lim))
		}
	}
	plan, err := faultinject.ParsePlan("sim:err:at=1000", 1)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Activate(faultinject.New(plan))
	defer faultinject.Deactivate()
	injected := []goldenMachine{
		{"multi", M11BR5.WithIssue(4, bus.XBar)},
		{"ooo", M11BR5.WithIssue(4, bus.BusN)},
		{"ruu", M11BR5.WithIssue(4, bus.BusN).WithRUU(50)},
		{"tomasulo", M5BR2},
	}
	for _, g := range injected {
		m, err := g.build()
		if err != nil {
			t.Fatalf("%s: %v", g, err)
		}
		fmt.Fprintf(&b, "%s sim:err:at=1000: %s\n", g, goldenOutcome(m, lfk1, Limits{}))
	}
	return b.String()
}

// TestMachinesGolden pins the multi, ooo, ruu and tomasulo machines
// beyond the paper's grid — widths, buses, RUU sizes, memory banks,
// unit copies and latencies, perfect branches — plus the guard's
// budget, watchdog and injected-fault outcomes. The tables golden
// holds only the paper's configurations; this file holds the cycle
// loops' behaviour everywhere else a sweep can reach.
func TestMachinesGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "machines.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := machinesGolden(t)
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	shown := 0
	for i := 0; i < max(len(gotLines), len(wantLines)) && shown < 10; i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, g, w)
			shown++
		}
	}
	if shown == 0 {
		t.Error("machines.golden differs")
	}
}
