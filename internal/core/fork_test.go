package core

import (
	"fmt"
	"reflect"
	"testing"

	"mfup/internal/bus"
	"mfup/internal/isa"
	"mfup/internal/loops"
	"mfup/internal/probe"
	"mfup/internal/trace"
)

// forkMachines returns a constructor for every machine kind under each
// configuration the fork differential test covers: the paper's slow
// and fast corners, banked memory, perfect branches, two FloatMul
// copies, crossbars where the kind takes one, buffer widths 1, 2, 4 and
// 13 for the multiple-issue machines, and a 100-entry RUU.
func forkMachines() map[string]func() Machine {
	twoMuls := M11BR5
	twoMuls.FUCount[isa.FloatMul] = 2
	ms := map[string]func() Machine{}
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"M11BR5", M11BR5}, {"M5BR2", M5BR2}, {"membanks4", M11BR5.WithMemBanks(4)},
		{"perfect", M5BR2.WithPerfectBranches()}, {"muls2", twoMuls},
	} {
		cfg := c.cfg
		w := cfg.WithIssue(2, bus.BusN)
		for _, o := range Organizations() {
			o := o
			ms[c.name+"/"+o.String()] = func() Machine { return must(NewBasic(o, cfg)) }
		}
		ms[c.name+"/scoreboard"] = func() Machine { return must(NewScoreboard(cfg)) }
		ms[c.name+"/tomasulo"] = func() Machine { return must(NewTomasulo(cfg)) }
		ms[c.name+"/multi"] = func() Machine { return must(NewMultiIssue(w)) }
		ms[c.name+"/ooo"] = func() Machine { return must(NewMultiIssueOOO(w)) }
		ms[c.name+"/ruu"] = func() Machine { return must(NewRUU(w.WithRUU(20))) }
		ms[c.name+"/vector"] = func() Machine { return must(NewVector(cfg)) }
	}
	x := M11BR5.WithIssue(4, bus.XBar)
	ms["xbar/multi"] = func() Machine { return must(NewMultiIssue(x)) }
	ms["xbar/ooo"] = func() Machine { return must(NewMultiIssueOOO(x)) }
	// Widths at which some fetch buffer starts exactly w ops before a
	// pause point. A pause there is what keeps the buffer from asking
	// whether the op past a sample's trace exists: the sample's trace
	// ends where a nest prefix does, the spine's goes on. LFK 6's
	// prefixes end 13 ops after their last taken branch, so only widths
	// 1 and 13 start a buffer there. The answer shows in the OOO
	// machine's branch-shadow stall, and in the in-order machine's
	// refill slots only when the final branch does not hold the issue
	// stage itself: under perfect branches.
	for _, w := range []int{1, 13} {
		for name, cfg := range map[string]Config{"": M11BR5, "perfect": M5BR2.WithPerfectBranches()} {
			c := cfg.WithIssue(w, bus.BusN)
			ms[fmt.Sprintf("w%d%s/multi", w, name)] = func() Machine { return must(NewMultiIssue(c)) }
			ms[fmt.Sprintf("w%d%s/ooo", w, name)] = func() Machine { return must(NewMultiIssueOOO(c)) }
		}
	}
	ms["ruu100/nbus"] = func() Machine { return must(NewRUU(M5BR2.WithIssue(4, bus.BusN).WithRUU(100))) }
	ms["ruu100/1bus"] = func() Machine { return must(NewRUU(M11BR5.WithIssue(8, bus.Bus1).WithRUU(100))) }
	return ms
}

// forkLadder is the ladder of every reduced trace of tr the engine
// could sample, with none of ladderFor's engagement checks (banks, tail
// identity, budget): a fork must be exact whether or not the closure
// would be. A period too short for the engine's warm-up (the vector
// codings) starts at two windows instead. ok is false for a trace with
// neither a Period nor a Nest.
func forkLadder(tr *trace.Trace) (l ladder, ok bool) {
	prep := tr.Prepared()
	if pd := prep.Period(); pd != nil {
		warmup := extrapWarmup(pd.Span)
		if pd.Windows-warmup-1 < 1 {
			warmup = 2
		}
		return ladder{order: 1, reduce: pd.Slice, split: pd.Diverge, full: pd.Windows,
			warmup: warmup, stages: periodStages}, true
	}
	if nt := prep.Nest(); nt != nil {
		return ladder{order: 2, reduce: nt.Prefix, split: nt.Len, full: nt.Outer,
			warmup: nestWarmup, stages: nestStages}, true
	}
	return ladder{}, false
}

// forkTraces returns every kernel trace with a Period or a Nest at its
// default length, the vector codings' included.
func forkTraces(t *testing.T) []*trace.Trace {
	var ts []*trace.Trace
	for _, k := range append(loops.All(), loops.VectorKernels()...) {
		if tr := k.SharedTrace(); tr.Prepared().Period() != nil || tr.Prepared().Nest() != nil {
			ts = append(ts, tr)
		}
	}
	if len(ts) < 10 {
		t.Fatalf("only %d kernels have a Period or a Nest", len(ts))
	}
	return ts
}

// checkForks forks the samples of the first two stages of tr's ladder
// one at a time and compares each with a run of its reduced trace from
// cycle 0 on one fresh machine: equal results, equal counters in every
// field, and, after each, equal units refused over all the runs so far.
// It returns how many samples it compared.
func checkForks(t *testing.T, mk func() Machine, tr *trace.Trace) int {
	l, _ := forkLadder(tr)
	n := min(l.stages[1].samples, l.full-l.warmup-1)
	if n < 1 {
		return 0
	}
	e := Extrapolate(mk())
	sp := e.sampler(e.inner.(forker), l, DefaultLimits())
	defer sp.close()
	fresh := mk()
	for i := 0; i < n; i++ {
		size := l.warmup + i
		if reason := sp.grow(i + 1); reason != "" {
			t.Fatalf("%s on %s at %d: %s", e.Name(), tr.Name, size, reason)
		}
		s := sp.samples[i]
		c := new(probe.Counters)
		fresh.SetProbe(c)
		want, err := fresh.RunChecked(l.reduce(size), DefaultLimits())
		if err != nil {
			t.Fatalf("%s on %s at %d: %v", fresh.Name(), tr.Name, size, err)
		}
		if s.r != want || !reflect.DeepEqual(s.c, c) {
			t.Fatalf("%s on %s at %d: forked %+v\n%+v\nfrom cycle 0 %+v\n%+v", fresh.Name(), tr.Name, size, s.r, *s.c, want, *c)
		}
		got, okG := UnitsRefused(e)
		want2, okW := UnitsRefused(fresh)
		if got != want2 || okG != okW {
			t.Fatalf("%s on %s at %d: units refused %b (%v) forked, %b (%v) from cycle 0", fresh.Name(), tr.Name, size, got, okG, want2, okW)
		}
	}
	return n
}

// TestForkedSamplesMatchRuns checks the premise of the forked ladder
// on every machine kind: a sample resumed from a copy of a paused run
// of the whole trace is the run of its reduced trace from cycle 0.
func TestForkedSamplesMatchRuns(t *testing.T) {
	ts := forkTraces(t)
	for name, mk := range forkMachines() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			compared, vector := 0, 0
			_, isVector := mk().(*vectorMachine)
			for _, tr := range ts {
				onVector := tr.Prepared().FirstVector >= 0
				if onVector && !isVector {
					continue
				}
				n := checkForks(t, mk, tr)
				if compared += n; onVector {
					vector += n
				}
			}
			if compared < 400 || isVector && vector == 0 {
				t.Errorf("compared %d samples, %d on vector traces", compared, vector)
			}
		})
	}
}

// TestForkedLadderAllocations checks that a warmed ladder allocates
// nothing per fork beyond its sample's counters: a counter set and a
// copy of its occupancy histogram. It counts the allocations a ladder
// of 32 samples makes beyond one of 16.
func TestForkedLadderAllocations(t *testing.T) {
	k, err := loops.Scaled(6, 256)
	if err != nil {
		t.Fatal(err)
	}
	nest := k.SharedTrace()
	for _, m := range []Machine{
		must(NewRUU(M11BR5.WithIssue(4, bus.BusN).WithRUU(50))),
		must(NewTomasulo(M11BR5)),
		must(NewMultiIssueOOO(M11BR5.WithIssue(2, bus.BusN))),
		must(NewMultiIssue(M11BR5.WithIssue(2, bus.BusN))),
		must(NewBasic(CRAYLike, M11BR5)),
		must(NewScoreboard(M11BR5)),
		must(NewVector(M11BR5)),
	} {
		for _, tr := range []*trace.Trace{kernelTrace(t, 1), nest} {
			e := Extrapolate(m)
			l, _ := forkLadder(tr)
			ladder := func(n int) {
				sp := e.sampler(m.(forker), l, DefaultLimits())
				reason := sp.grow(n)
				sp.close()
				if reason != "" {
					t.Fatalf("%s on %s: %s", m.Name(), tr.Name, reason)
				}
			}
			ladder(32) // warm: size the spare and build the reduced traces
			short := testing.AllocsPerRun(3, func() { ladder(16) })
			long := testing.AllocsPerRun(3, func() { ladder(32) })
			perFork := (long - short) / 16
			t.Logf("%s on %s: %.0f allocations for 16 samples, %.0f for 32: %.2f per fork", m.Name(), tr.Name, short, long, perFork)
			if !raceEnabled && perFork > 2 {
				t.Errorf("%s on %s: %.2f allocations per fork, want at most the sample's counters' 2", m.Name(), tr.Name, perFork)
			}
		}
	}
}

// TestForkedLadderCountsSimulatedOps pins what SimulatedOps counts: the
// spine's ops up to its last pause plus each fork's tail, far fewer
// than running every sample from cycle 0.
func TestForkedLadderCountsSimulatedOps(t *testing.T) {
	tr := kernelTrace(t, 1)
	e := Extrapolate(must(NewBasic(CRAYLike, M11BR5)))
	must(e.RunChecked(tr, DefaultLimits()))
	s := e.Stats()
	l, _ := forkLadder(tr)
	spine := int64(l.split(l.warmup + extrapSamples - 1))
	var fromZero int64
	for i := 0; i < extrapSamples; i++ {
		fromZero += int64(len(l.reduce(l.warmup + i).Ops))
	}
	if !s.Engaged || s.SimulatedOps < spine || 4*s.SimulatedOps > fromZero {
		t.Errorf("stats %+v: want an engaged run of at least the spine's %d ops and at most a quarter of the %d from cycle 0",
			s, spine, fromZero)
	}
}
