package mfup_test

import (
	"fmt"
	"testing"
	"time"

	"mfup"
	"mfup/internal/core"
	"mfup/internal/loops"
	"mfup/internal/stats"
	"mfup/internal/tables"
	"mfup/internal/trace"
)

// The benchmarks regenerate each paper table (BenchmarkTable1-8),
// reporting the table's headline issue rate as a custom metric, and
// additionally measure raw simulator throughput and the ablations
// called out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// The printable tables themselves come from cmd/mfutables.

// reportHeadline attaches a table's most representative cell as a
// custom benchmark metric so regressions in *results* (not just
// speed) are visible in benchmark diffs.
func reportHeadline(b *testing.B, t *tables.Table, row, col int, name string) {
	b.Helper()
	b.ReportMetric(t.Rows[row].Rates[col], name)
}

func BenchmarkTable1(b *testing.B) {
	var t *tables.Table
	for i := 0; i < b.N; i++ {
		t = tables.Table1()
	}
	// Scalar CRAY-like on M11BR5: the base machine of the study.
	reportHeadline(b, t, 3, 0, "scalar-cray-M11BR5")
}

func BenchmarkTable2(b *testing.B) {
	var t *tables.Table
	for i := 0; i < b.N; i++ {
		t = tables.Table2()
	}
	// Scalar Pure actual limit on M11BR5 (the paper's 1.29 analogue).
	reportHeadline(b, t, 0, 2, "scalar-pure-actual-M11BR5")
}

func BenchmarkTable3(b *testing.B) {
	var t *tables.Table
	for i := 0; i < b.N; i++ {
		t = tables.Table3()
	}
	reportHeadline(b, t, 7, 0, "scalar-8stations-M11BR5-NBus")
}

func BenchmarkTable4(b *testing.B) {
	var t *tables.Table
	for i := 0; i < b.N; i++ {
		t = tables.Table4()
	}
	reportHeadline(b, t, 7, 0, "vector-8stations-M11BR5-NBus")
}

func BenchmarkTable5(b *testing.B) {
	var t *tables.Table
	for i := 0; i < b.N; i++ {
		t = tables.Table5()
	}
	reportHeadline(b, t, 7, 0, "scalar-ooo-8stations-M11BR5-NBus")
}

func BenchmarkTable6(b *testing.B) {
	var t *tables.Table
	for i := 0; i < b.N; i++ {
		t = tables.Table6()
	}
	reportHeadline(b, t, 7, 0, "vector-ooo-8stations-M11BR5-NBus")
}

func BenchmarkTable7(b *testing.B) {
	var t *tables.Table
	for i := 0; i < b.N; i++ {
		t = tables.Table7()
	}
	// 4 units, RUU 40, N-Bus on M11BR5 (the paper's 0.83 analogue).
	reportHeadline(b, t, 3, 6, "scalar-ruu40-4units-M11BR5-NBus")
}

func BenchmarkTable8(b *testing.B) {
	var t *tables.Table
	for i := 0; i < b.N; i++ {
		t = tables.Table8()
	}
	reportHeadline(b, t, 5, 6, "vector-ruu100-4units-M11BR5-NBus")
}

// ---------------------------------------------------------------------
// Simulator throughput: dynamic instructions simulated per second for
// each machine family, over the full 14-loop suite.

func allTraces() []*trace.Trace {
	var ts []*trace.Trace
	for _, k := range loops.All() {
		ts = append(ts, k.SharedTrace())
	}
	return ts
}

func benchMachine(b *testing.B, m core.Machine) {
	b.Helper()
	ts := allTraces()
	var ops int64
	for _, t := range ts {
		ops += int64(t.Len())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range ts {
			must(m.RunChecked(t, core.Limits{}))
		}
	}
	b.ReportMetric(float64(ops*int64(b.N))/b.Elapsed().Seconds(), "instrs/s")
}

func BenchmarkSimulatorSimple(b *testing.B) {
	benchMachine(b, must(core.NewBasic(core.Simple, core.M11BR5)))
}

func BenchmarkSimulatorCRAYLike(b *testing.B) {
	benchMachine(b, must(core.NewBasic(core.CRAYLike, core.M11BR5)))
}

func BenchmarkSimulatorMultiIssue(b *testing.B) {
	benchMachine(b, must(core.NewMultiIssue(core.M11BR5.WithIssue(4, mfup.BusN))))
}

func BenchmarkSimulatorOOO(b *testing.B) {
	benchMachine(b, must(core.NewMultiIssueOOO(core.M11BR5.WithIssue(4, mfup.BusN))))
}

func BenchmarkSimulatorRUU(b *testing.B) {
	benchMachine(b, must(core.NewRUU(core.M11BR5.WithIssue(4, mfup.BusN).WithRUU(50))))
}

func BenchmarkSimulatorTomasulo(b *testing.B) {
	benchMachine(b, must(core.NewTomasulo(core.M11BR5)))
}

func BenchmarkTraceGeneration(b *testing.B) {
	ks := loops.All()
	for i := 0; i < b.N; i++ {
		for _, k := range ks {
			if _, err := k.Trace(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkDataflowLimits(b *testing.B) {
	ts := allTraces()
	lat := core.M11BR5.Latencies()
	var v float64
	for i := 0; i < b.N; i++ {
		for _, t := range ts {
			v = mfup.ComputeLimits(t, core.M11BR5, mfup.Pure).Actual
		}
	}
	_ = lat
	b.ReportMetric(v, "last-actual-limit")
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md §5).

// BenchmarkAblationXBarVsNBus quantifies the paper's remark that the
// full-crossbar results are "essentially the same" as N-Bus.
func BenchmarkAblationXBarVsNBus(b *testing.B) {
	ts := allTraces()
	var xbar, nbus float64
	for i := 0; i < b.N; i++ {
		var rx, rn []float64
		mx := must(core.NewMultiIssue(core.M11BR5.WithIssue(4, mfup.XBar)))
		mn := must(core.NewMultiIssue(core.M11BR5.WithIssue(4, mfup.BusN)))
		for _, t := range ts {
			rx = append(rx, must(mx.RunChecked(t, core.Limits{})).IssueRate())
			rn = append(rn, must(mn.RunChecked(t, core.Limits{})).IssueRate())
		}
		xbar, nbus = stats.HarmonicMean(rx), stats.HarmonicMean(rn)
	}
	b.ReportMetric(xbar, "xbar-rate")
	b.ReportMetric(nbus, "nbus-rate")
}

// BenchmarkAblationMemoryVsPipelining separates the two §3 levers:
// interleaving memory alone (NonSegmented over SerialMemory) vs
// pipelining the functional units alone (CRAYLike over NonSegmented).
func BenchmarkAblationMemoryVsPipelining(b *testing.B) {
	ts := allTraces()
	var serial, interleaved, pipelined float64
	for i := 0; i < b.N; i++ {
		rate := func(o core.Organization) float64 {
			m := must(core.NewBasic(o, core.M11BR5))
			var rs []float64
			for _, t := range ts {
				rs = append(rs, must(m.RunChecked(t, core.Limits{})).IssueRate())
			}
			return stats.HarmonicMean(rs)
		}
		serial = rate(core.SerialMemory)
		interleaved = rate(core.NonSegmented)
		pipelined = rate(core.CRAYLike)
	}
	b.ReportMetric(interleaved/serial, "interleave-speedup")
	b.ReportMetric(pipelined/interleaved, "pipeline-speedup")
}

// BenchmarkAblationRUUBankPartitioning contrasts the restricted
// N-Bus RUU (paper) with the single shared pool of the 1-Bus design
// at equal total size.
func BenchmarkAblationRUUBankPartitioning(b *testing.B) {
	ts := allTraces()
	var banked, shared float64
	for i := 0; i < b.N; i++ {
		mb := must(core.NewRUU(core.M11BR5.WithIssue(4, mfup.BusN).WithRUU(40)))
		ms := must(core.NewRUU(core.M11BR5.WithIssue(4, mfup.Bus1).WithRUU(40)))
		var rb, rs []float64
		for _, t := range ts {
			rb = append(rb, must(mb.RunChecked(t, core.Limits{})).IssueRate())
			rs = append(rs, must(ms.RunChecked(t, core.Limits{})).IssueRate())
		}
		banked, shared = stats.HarmonicMean(rb), stats.HarmonicMean(rs)
	}
	b.ReportMetric(banked, "nbus-banked-rate")
	b.ReportMetric(shared, "1bus-shared-rate")
}

// BenchmarkAblationMemoryBanks quantifies what the ideal interleaved
// memory assumes: with 16 banks (the CRAY-1's configuration) rates
// are near-ideal; with 4 banks conflicts bite.
func BenchmarkAblationMemoryBanks(b *testing.B) {
	ts := allTraces()
	rates := map[int]float64{}
	for i := 0; i < b.N; i++ {
		for _, banks := range []int{0, 16, 4} {
			m := must(core.NewBasic(core.CRAYLike, core.M11BR5.WithMemBanks(banks)))
			var rs []float64
			for _, t := range ts {
				rs = append(rs, must(m.RunChecked(t, core.Limits{})).IssueRate())
			}
			rates[banks] = stats.HarmonicMean(rs)
		}
	}
	b.ReportMetric(rates[0], "ideal-rate")
	b.ReportMetric(rates[16], "banks16-rate")
	b.ReportMetric(rates[4], "banks4-rate")
}

// BenchmarkAblationSoftwareScheduling measures the §6 "software code
// scheduling" lever: static list scheduling of the kernels vs. the
// original codings, on the single-issue CRAY-like machine (where it
// pays) and on an RUU machine (where hardware dependency resolution
// has already claimed most of it).
func BenchmarkAblationSoftwareScheduling(b *testing.B) {
	type variant struct{ base, scheduled []*trace.Trace }
	var v variant
	for _, k := range loops.All() {
		v.base = append(v.base, k.SharedTrace())
		s := mfup.ScheduleProgram(k.Program(), core.M11BR5)
		m := k.NewMachine()
		tr, err := mfup.TraceProgram(m, s)
		if err != nil {
			b.Fatal(err)
		}
		if err := k.Validate(m); err != nil {
			b.Fatal(err)
		}
		v.scheduled = append(v.scheduled, tr)
	}
	hm := func(m core.Machine, ts []*trace.Trace) float64 {
		var rs []float64
		for _, t := range ts {
			rs = append(rs, must(m.RunChecked(t, core.Limits{})).IssueRate())
		}
		return stats.HarmonicMean(rs)
	}
	var crayBase, craySched, ruuBase, ruuSched float64
	for i := 0; i < b.N; i++ {
		cray := must(core.NewBasic(core.CRAYLike, core.M11BR5))
		ruu := must(core.NewRUU(core.M11BR5.WithIssue(2, mfup.BusN).WithRUU(40)))
		crayBase, craySched = hm(cray, v.base), hm(cray, v.scheduled)
		ruuBase, ruuSched = hm(ruu, v.base), hm(ruu, v.scheduled)
	}
	b.ReportMetric(craySched/crayBase, "cray-sched-speedup")
	b.ReportMetric(ruuSched/ruuBase, "ruu-sched-speedup")
}

// BenchmarkAblationPerfectBranches measures how much of the remaining
// blockage is control dependences: the same machines with ideal
// branch prediction (an upper bound the paper deliberately does not
// assume).
func BenchmarkAblationPerfectBranches(b *testing.B) {
	ts := allTraces()
	hm := func(m core.Machine) float64 {
		var rs []float64
		for _, t := range ts {
			rs = append(rs, must(m.RunChecked(t, core.Limits{})).IssueRate())
		}
		return stats.HarmonicMean(rs)
	}
	var crayGain, ruuGain float64
	for i := 0; i < b.N; i++ {
		crayGain = hm(must(core.NewBasic(core.CRAYLike, core.M11BR5.WithPerfectBranches()))) /
			hm(must(core.NewBasic(core.CRAYLike, core.M11BR5)))
		ruuGain = hm(must(core.NewRUU(core.M11BR5.WithIssue(4, mfup.BusN).WithRUU(50).WithPerfectBranches()))) /
			hm(must(core.NewRUU(core.M11BR5.WithIssue(4, mfup.BusN).WithRUU(50))))
	}
	b.ReportMetric(crayGain, "cray-speedup")
	b.ReportMetric(ruuGain, "ruu-speedup")
}

// BenchmarkSection33 regenerates the supplementary dependency-
// resolution comparison (§3.3 of the paper, quoted in prose there).
func BenchmarkSection33(b *testing.B) {
	var t *tables.Table
	for i := 0; i < b.N; i++ {
		t = tables.SectionThreeThree()
	}
	reportHeadline(b, t, 3, 0, "scalar-ruu1-M11BR5")
}

// BenchmarkAblationVectorVsSuperscalar measures the extension
// comparison: the vectorized kernels on the vector-unit machine vs.
// the same computations as scalar code on the paper's strongest
// multiple-issue machine. Reported metrics are mean cycle ratios.
func BenchmarkAblationVectorVsSuperscalar(b *testing.B) {
	vec := must(core.NewVector(core.M11BR5))
	ruu := must(core.NewRUU(core.M11BR5.WithIssue(4, mfup.BusN).WithRUU(100)))
	cray := must(core.NewBasic(core.CRAYLike, core.M11BR5))
	var vsCray, vsRUU float64
	for i := 0; i < b.N; i++ {
		vsCray, vsRUU = 0, 0
		vks := loops.VectorKernels()
		for _, vk := range vks {
			sk, err := loops.Get(vk.Number)
			if err != nil {
				b.Fatal(err)
			}
			vtr := vk.MustTrace()
			v := float64(must(vec.RunChecked(vtr, core.Limits{})).Cycles)
			vsCray += float64(must(cray.RunChecked(sk.SharedTrace(), core.Limits{})).Cycles) / v
			vsRUU += float64(must(ruu.RunChecked(sk.SharedTrace(), core.Limits{})).Cycles) / v
		}
		vsCray /= float64(len(vks))
		vsRUU /= float64(len(vks))
	}
	b.ReportMetric(vsCray, "vector-speedup-vs-cray")
	b.ReportMetric(vsRUU, "vector-speedup-vs-ruu")
}

// BenchmarkTablesParallel measures the worker-pool scheduler: each
// iteration regenerates all eight tables once serially and once with
// all cores, and reports the wall-clock ratio as "speedup". On a
// single-core host the ratio is ~1.0 (the pool adds no overhead); it
// approaches the core count on multicore hosts, since every
// (machine, configuration, trace) cell is independent.
func BenchmarkTablesParallel(b *testing.B) {
	defer tables.SetParallel(0)
	var serial, parallel time.Duration
	for i := 0; i < b.N; i++ {
		tables.SetParallel(1)
		start := time.Now()
		tables.All()
		serial += time.Since(start)

		tables.SetParallel(0)
		start = time.Now()
		tables.All()
		parallel += time.Since(start)
	}
	b.ReportMetric(serial.Seconds()/parallel.Seconds(), "speedup")
}

// Steady-state extrapolation: the engine's O(1)-in-iterations claim,
// and the cost of the always-safe wrapper when it cannot engage.

// BenchmarkExtrapolation simulates LFK 1 at one billion iterations
// through the extrapolation engine (4000 materialized + ~1e9 virtual).
// "speedup" is the ratio against full simulation at the same length,
// estimated from measured full-simulation throughput on the largest
// materializable trace — running 1e9 iterations directly would take
// hours, which is precisely the point.
func BenchmarkExtrapolation(b *testing.B) {
	const n = 1_000_000_000
	k, extra, err := loops.ForScale(1, n)
	if err != nil {
		b.Fatal(err)
	}
	vw, err := loops.VirtualWindows(k, extra)
	if err != nil {
		b.Fatal(err)
	}
	tr := k.SharedTrace()
	full := must(core.NewBasic(core.CRAYLike, core.M11BR5))
	const fullRuns = 3
	var fullInstr int64
	start := time.Now()
	for i := 0; i < fullRuns; i++ {
		fullInstr = must(full.RunChecked(tr, core.Limits{})).Instructions
	}
	fullPerInstr := time.Since(start).Seconds() / float64(fullRuns) / float64(fullInstr)

	var last core.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := core.Extrapolate(must(core.NewBasic(core.CRAYLike, core.M11BR5))).
			WithVirtual(map[string]int64{tr.Name: vw})
		r, err := e.RunChecked(tr, core.DefaultLimits())
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.Instructions), "instrs")
	fullEstimate := fullPerInstr * float64(last.Instructions)
	b.ReportMetric(fullEstimate/(b.Elapsed().Seconds()/float64(b.N)), "speedup")
}

// BenchmarkExtrapolationNest closes LFK 6 at its largest build (256:
// 263,674 instructions in 255 outer iterations of growing inner loops)
// through the engine's second differences, on the 2-wide out-of-order
// machine and on the 2-wide RUU with 25 entries at M5BR2, whose ladder
// needs 16 outer iterations per lag. "speedup" is the ratio against
// full simulation of the same trace, timed before the loop; "refops"
// is the instructions the forked ladder simulates per run.
func BenchmarkExtrapolationNest(b *testing.B) {
	k, err := loops.Scaled(6, 256)
	if err != nil {
		b.Fatal(err)
	}
	tr := k.SharedTrace()
	for _, c := range []struct {
		name string
		mk   func() core.Machine
	}{
		{"OOO", func() core.Machine { return must(core.NewMultiIssueOOO(core.M11BR5.WithIssue(2, mfup.BusN))) }},
		{"RUU", func() core.Machine { return must(core.NewRUU(core.M5BR2.WithIssue(2, mfup.BusN).WithRUU(25))) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			benchmarkClosure(b, c.mk, tr, nil)
		})
	}
}

// BenchmarkExtrapolationPeriod closes LFK 11 at scale 100000 (4000
// built iterations, 28,001 instructions, the rest virtual) on the
// 8-wide RUU with 25 entries over an N-Bus at M11BR2, whose ladder
// climbs to its third stage for a lag of 40 windows. "speedup" is the
// ratio against full simulation at the same length, estimated from
// the built trace's measured throughput; "refops" is the instructions
// the forked ladder simulates per run.
func BenchmarkExtrapolationPeriod(b *testing.B) {
	k, extra, err := loops.ForScale(11, 100000)
	if err != nil {
		b.Fatal(err)
	}
	vw, err := loops.VirtualWindows(k, extra)
	if err != nil {
		b.Fatal(err)
	}
	tr := k.SharedTrace()
	mk := func() core.Machine { return must(core.NewRUU(core.M11BR2.WithIssue(8, mfup.BusN).WithRUU(25))) }
	benchmarkClosure(b, mk, tr, map[string]int64{tr.Name: vw})
}

// benchmarkClosure times the engine closing tr on mk's machine, with
// virtual windows, and reports "refops" and "speedup" over full
// simulation, scaled by instruction count when the run is longer than
// the trace.
func benchmarkClosure(b *testing.B, mk func() core.Machine, tr *trace.Trace, virtual map[string]int64) {
	full := mk()
	const fullRuns = 3
	start := time.Now()
	for i := 0; i < fullRuns; i++ {
		must(full.RunChecked(tr, core.Limits{}))
	}
	fullPerInstr := time.Since(start).Seconds() / fullRuns / float64(len(tr.Ops))

	e := core.Extrapolate(mk()).WithVirtual(virtual)
	var last core.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := e.RunChecked(tr, core.DefaultLimits())
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	s := e.Stats()
	if !s.Engaged {
		b.Fatalf("%s on %s fell back: %s", e.Name(), tr.Name, s.Reason)
	}
	b.ReportMetric(float64(s.SimulatedOps), "refops")
	b.ReportMetric(fullPerInstr*float64(last.Instructions)/(b.Elapsed().Seconds()/float64(b.N)), "speedup")
}

// BenchmarkExtrapolationOverhead measures the wrapper against the bare
// machine on the two kinds of trace it can never extrapolate: LFK 13
// has no period (data-dependent control flow), and LFK 14 has one but
// its reduced traces fail the tail identity check. "overhead" is the
// wrapped/bare time ratio: the fallback path must stay at seed speed
// (~1.0), since the engine decides from the cached period and tail
// verdict before simulating anything.
func BenchmarkExtrapolationOverhead(b *testing.B) {
	for _, n := range []int{13, 14} {
		b.Run(fmt.Sprintf("LFK%d", n), func(b *testing.B) {
			k, err := loops.Get(n)
			if err != nil {
				b.Fatal(err)
			}
			tr := k.SharedTrace()
			// Charge the one-time decode, period analysis and tail check
			// to neither side; the verdict itself (an error for both
			// kernels) does not matter here.
			_ = core.CanExtrapolate(tr)
			var bare, wrapped time.Duration
			m := must(core.NewBasic(core.CRAYLike, core.M11BR5))
			e := core.Extrapolate(must(core.NewBasic(core.CRAYLike, core.M11BR5)))
			for i := 0; i < b.N; i++ {
				start := time.Now()
				if _, err := m.RunChecked(tr, core.Limits{}); err != nil {
					b.Fatal(err)
				}
				bare += time.Since(start)

				start = time.Now()
				if _, err := e.RunChecked(tr, core.Limits{}); err != nil {
					b.Fatal(err)
				}
				wrapped += time.Since(start)
			}
			b.ReportMetric(wrapped.Seconds()/bare.Seconds(), "overhead")
		})
	}
}
