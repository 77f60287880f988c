package mfup_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"mfup"
	"mfup/internal/bus"
	"mfup/internal/probe"
	"mfup/internal/tables"
)

// matrixMachines covers every machine model: the four §3 basic
// organizations, the two §3.3 dependency-resolution references, the
// §5 multiple-issue family, and the vector extension. The multiple-
// issue machines run with two issue units and the RUU with 20 entries
// — big enough to exercise buffer wraparound in the steady state.
type matrixMachine struct {
	name string
	mk   func(cfg mfup.Config) mfup.Machine
}

func matrixMachines() []matrixMachine {
	wide := func(cfg mfup.Config) mfup.Config { return cfg.WithIssue(2, bus.BusN) }
	return []matrixMachine{
		{"Simple", func(cfg mfup.Config) mfup.Machine { return must(mfup.NewBasic(mfup.Simple, cfg)) }},
		{"SerialMemory", func(cfg mfup.Config) mfup.Machine { return must(mfup.NewBasic(mfup.SerialMemory, cfg)) }},
		{"NonSegmented", func(cfg mfup.Config) mfup.Machine { return must(mfup.NewBasic(mfup.NonSegmented, cfg)) }},
		{"CRAYLike", func(cfg mfup.Config) mfup.Machine { return must(mfup.NewBasic(mfup.CRAYLike, cfg)) }},
		{"Scoreboard", func(cfg mfup.Config) mfup.Machine { return must(mfup.NewScoreboard(cfg)) }},
		{"Tomasulo", func(cfg mfup.Config) mfup.Machine { return must(mfup.NewTomasulo(cfg)) }},
		{"MultiIssue", func(cfg mfup.Config) mfup.Machine { return must(mfup.NewMultiIssue(wide(cfg))) }},
		{"MultiIssueOOO", func(cfg mfup.Config) mfup.Machine { return must(mfup.NewMultiIssueOOO(wide(cfg))) }},
		{"RUU", func(cfg mfup.Config) mfup.Machine { return must(mfup.NewRUU(wide(cfg).WithRUU(20))) }},
		{"Vector", func(cfg mfup.Config) mfup.Machine { return must(mfup.NewVector(cfg)) }},
	}
}

// countersEqual compares every observable total of two probes, with
// occupancy histograms read level-wise so recorded-length differences
// (trailing zeros) do not count as divergence.
func countersEqual(a, b *probe.Counters) string {
	if a.Issued != b.Issued || a.Cycles != b.Cycles || a.Slots != b.Slots ||
		a.Branches != b.Branches || a.Width != b.Width {
		return fmt.Sprintf("totals: %s vs %s", a, b)
	}
	if a.Stalls != b.Stalls {
		return fmt.Sprintf("stall breakdown: %v vs %v", a.Stalls, b.Stalls)
	}
	if a.FU != b.FU {
		return fmt.Sprintf("unit work: %v vs %v", a.FU, b.FU)
	}
	hist := func(c *probe.Counters, level int) int64 {
		if level < len(c.OccupancyHist) {
			return c.OccupancyHist[level]
		}
		return 0
	}
	n := len(a.OccupancyHist)
	if len(b.OccupancyHist) > n {
		n = len(b.OccupancyHist)
	}
	for i := 0; i < n; i++ {
		if hist(a, i) != hist(b, i) {
			return fmt.Sprintf("occupancy level %d: %d vs %d", i, hist(a, i), hist(b, i))
		}
	}
	return ""
}

// TestExtrapolationMatrix is the differential matrix: every machine
// model against every Livermore loop (the vector machine against its
// nine vector codings — it rejects scalar traces), extrapolated
// against full simulation. Cycle counts, instruction counts, issue
// rates, and the complete per-reason stall ledger must be identical
// bit for bit whether the engine engaged or fell back; engagement
// itself is pinned where the steady-state premise guarantees it.
// Runs in parallel per machine so -race exercises the shared
// period/slice caches from concurrent engines.
func TestExtrapolationMatrix(t *testing.T) {
	var scalarTraces, vectorTraces []*mfup.Trace
	for _, k := range mfup.Kernels() {
		scalarTraces = append(scalarTraces, k.SharedTrace())
	}
	for _, k := range mfup.VectorKernels() {
		vectorTraces = append(vectorTraces, k.SharedTrace())
	}

	for _, cfg := range []mfup.Config{mfup.M11BR5, mfup.M5BR2} {
		for _, mm := range matrixMachines() {
			cfg, mm := cfg, mm
			t.Run(cfg.Name()+"/"+mm.name, func(t *testing.T) {
				t.Parallel()
				traces := scalarTraces
				if mm.name == "Vector" {
					traces = vectorTraces
				}
				engagedAny := false
				for _, tr := range traces {
					bare := mm.mk(cfg)
					var wantC probe.Counters
					bare.SetProbe(&wantC)
					want, err := bare.RunChecked(tr, mfup.DefaultSimLimits())
					if err != nil {
						t.Fatalf("%s full: %v", tr.Name, err)
					}
					bare.SetProbe(nil)

					e := mfup.Extrapolate(mm.mk(cfg))
					var gotC probe.Counters
					e.SetProbe(&gotC)
					got, err := e.RunChecked(tr, mfup.DefaultSimLimits())
					if err != nil {
						t.Fatalf("%s extrapolated: %v", tr.Name, err)
					}
					if got != want {
						t.Errorf("%s: result diverged:\n extrapolated %+v\n full         %+v",
							tr.Name, got, want)
					}
					if diff := countersEqual(&gotC, &wantC); diff != "" {
						t.Errorf("%s: counters diverged: %s", tr.Name, diff)
					}
					s := e.Stats()
					engagedAny = engagedAny || s.Engaged
					if tr.Name == "lfk13" && s.Engaged {
						t.Errorf("lfk13 (data-dependent flow) engaged the engine")
					}
					if !s.Engaged && s.Reason == "" {
						t.Errorf("%s: fallback with no reason", tr.Name)
					}
				}
				// Every scalar machine must engage somewhere on the
				// strided kernels; the vector codings are too short
				// and fall back everywhere, which is itself pinned.
				if mm.name == "Vector" {
					if engagedAny {
						t.Error("vector machine engaged on a short vector coding")
					}
				} else if !engagedAny {
					t.Error("engine never engaged on any scalar kernel")
				}
			})
		}
	}
}

// TestExtrapolationNest is the differential test for the nest closure:
// LFK 6 at its largest build (256, 255 outer iterations of growing
// inner loops) on the nine scalar machines of the matrix, extrapolated
// against full simulation. Results and counters must be identical bit
// for bit, and every one of them closes the run by second differences
// at under a fifth of the trace's simulation cost.
func TestExtrapolationNest(t *testing.T) {
	k, err := mfup.ScaledKernel(6, 256)
	if err != nil {
		t.Fatal(err)
	}
	tr := k.SharedTrace()
	for _, cfg := range []mfup.Config{mfup.M11BR5, mfup.M5BR2} {
		for _, mm := range matrixMachines() {
			if mm.name == "Vector" {
				continue
			}
			cfg, mm := cfg, mm
			t.Run(cfg.Name()+"/"+mm.name, func(t *testing.T) {
				t.Parallel()
				bare := mm.mk(cfg)
				var wantC probe.Counters
				bare.SetProbe(&wantC)
				want, err := bare.RunChecked(tr, mfup.DefaultSimLimits())
				if err != nil {
					t.Fatal(err)
				}
				e := mfup.Extrapolate(mm.mk(cfg))
				var gotC probe.Counters
				e.SetProbe(&gotC)
				got, err := e.RunChecked(tr, mfup.DefaultSimLimits())
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("result diverged:\n extrapolated %+v\n full         %+v", got, want)
				}
				if diff := countersEqual(&gotC, &wantC); diff != "" {
					t.Errorf("counters diverged: %s", diff)
				}
				s := e.Stats()
				if !s.Engaged || s.Order != 2 || s.Span != 8 || 5*s.SimulatedOps > int64(len(tr.Ops)) {
					t.Errorf("stats %+v, want a nest closure (order 2, 8 ops more per outer iteration) costing under a fifth of the %d-op trace", s, len(tr.Ops))
				}
			})
		}
	}
}

// TestExtrapolationTablesIdentical is the acceptance criterion on the
// paper artifacts: regenerating tables with the engine enabled must
// render byte-identical output — cycles, issue rates, and metrics —
// at the paper's loop lengths. Table 1 covers the four basic
// organizations; Table 7 the RUU family, whose long steady-state
// periods stress the adaptive ladder. The scaled case runs past LFK
// 10's layout maximum of 1100 iterations, where the workload extends
// analytically with or without the engine; its rates are compared bit
// for bit, since Render's two decimals can hide a difference. (The
// full sweep is covered by the e2e scaled-tables run.)
func TestExtrapolationTablesIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("table regeneration skipped in -short mode")
	}
	defer tables.SetExtrapolate(false)
	defer tables.SetScale(0)
	for _, tc := range []struct {
		name  string
		scale int
		gen   func() *tables.Table
	}{
		{"Table1", 0, tables.Table1},
		{"Table7", 0, tables.Table7},
		{"Table1/scale1200", 1200, tables.Table1},
	} {
		tables.SetScale(tc.scale)
		tables.SetExtrapolate(false)
		want := tc.gen()
		tables.SetExtrapolate(true)
		got := tc.gen()
		if got.Render() != want.Render() {
			t.Errorf("%s diverged under extrapolation:\n--- extrapolated ---\n%s\n--- full ---\n%s",
				tc.name, got.Render(), want.Render())
		}
		for i, row := range want.Rows {
			for j, rate := range row.Rates {
				if math.Float64bits(got.Rows[i].Rates[j]) != math.Float64bits(rate) {
					t.Errorf("%s %s column %d: extrapolated rate %v != full %v",
						tc.name, row.Label, j, got.Rows[i].Rates[j], rate)
				}
			}
		}
	}
}

// TestExtrapolationFacade smoke-tests the public wrappers: kernel
// scaling past the materializable maximum through KernelForScale /
// VirtualWindows / WithVirtual, with the headline n=1e9 shape.
func TestExtrapolationFacade(t *testing.T) {
	if err := mfup.CanExtrapolate(mfup.MustKernel(1).SharedTrace()); err != nil {
		t.Fatalf("CanExtrapolate(LFK 1): %v", err)
	}
	if err := mfup.CanExtrapolate(mfup.MustKernel(13).SharedTrace()); err == nil {
		t.Fatal("CanExtrapolate(LFK 13) = nil, want error")
	}
	const n = 1_000_000_000
	k, extra, err := mfup.KernelForScale(1, n)
	if err != nil {
		t.Fatal(err)
	}
	if int64(k.N)+extra != n {
		t.Fatalf("KernelForScale: %d materialized + %d virtual != %d", k.N, extra, n)
	}
	vw, err := mfup.VirtualWindows(k, extra)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mfup.VirtualWindows(k, -5); err == nil {
		t.Error("VirtualWindows accepted a negative iteration count")
	}
	e := mfup.Extrapolate(must(mfup.NewBasic(mfup.CRAYLike, mfup.M11BR5))).
		WithVirtual(map[string]int64{k.SharedTrace().Name: vw})
	r, err := e.RunChecked(k.SharedTrace(), mfup.DefaultSimLimits())
	if err != nil {
		t.Fatal(err)
	}
	// LFK 1 issues 14 instructions per iteration: the billion-point
	// loop's totals follow exactly.
	if r.Instructions < 14*int64(n) || r.Cycles <= r.Instructions {
		t.Errorf("n=1e9 run implausible: %+v", r)
	}
	if s := e.Stats(); !s.Engaged || s.Windows < int64(n) {
		t.Errorf("n=1e9 stats %+v, want engagement covering all windows", s)
	}
	if !strings.Contains(fmt.Sprint(r.Instructions), "000000") {
		t.Errorf("instruction count %d does not look extrapolated", r.Instructions)
	}
}
