package tables

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"mfup/internal/core"
	"mfup/internal/events"
	"mfup/internal/loops"
	"mfup/internal/machdef"
	"mfup/internal/probe"
	"mfup/internal/trace"
)

// must returns v, panicking on err: the machines a test builds and the
// runs it makes are expected to succeed.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// TestMetricsNilByDefault: without SetCollectMetrics, tables carry no
// metrics and machines run with a nil probe.
func TestMetricsNilByDefault(t *testing.T) {
	if tb := Table1(); tb.Metrics != nil {
		t.Errorf("Table1().Metrics = %d cells without collection enabled", len(tb.Metrics))
	}
}

// TestMetricsTable3vs4 collects stall breakdowns for the §5.1 tables
// and checks the properties the paper's discussion predicts: every
// cell's ledger balances (stall reasons sum to the cell's non-issuing
// slots), collection does not change the rates, and on every machine
// variation the 1-Bus cells attribute more result-bus stall cycles
// than their N-Bus counterparts — the contention that drags the
// 1-Bus columns down.
func TestMetricsTable3vs4(t *testing.T) {
	base3, base4 := Table3(), Table4()
	SetCollectMetrics(true)
	defer SetCollectMetrics(false)

	for _, tc := range []struct {
		name string
		mk   func() *Table
		base *Table
	}{
		{"Table3", Table3, base3},
		{"Table4", Table4, base4},
	} {
		tb := tc.mk()
		if len(tb.Errors) != 0 {
			t.Fatalf("%s with metrics: %d cell errors: %v", tc.name, len(tb.Errors), tb.Errors)
		}
		if want := len(tb.Rows) * len(tb.Columns); len(tb.Metrics) != want {
			t.Fatalf("%s: %d metrics cells, want %d", tc.name, len(tb.Metrics), want)
		}
		// Collection is observation-only: the rendered table is
		// identical to an uninstrumented run.
		if got, want := tb.Render(), tc.base.Render(); got != want {
			t.Errorf("%s changed under metrics collection:\n--- with ---\n%s--- without ---\n%s", tc.name, got, want)
		}

		// Per-variation result-bus attribution, summed over all
		// station counts.
		busStalls := make(map[string]int64) // column name -> result-bus slots
		for i, m := range tb.Metrics {
			if err := m.Counters.Check(); err != nil {
				t.Errorf("%s cell (%s, %s): %v", tc.name, m.Row, m.Column, err)
			}
			wantRow := tb.Rows[i/len(tb.Columns)].Label
			wantCol := tb.Columns[i%len(tb.Columns)]
			if m.Row != wantRow || m.Column != wantCol {
				t.Errorf("%s metrics cell %d labeled (%s, %s), want (%s, %s)",
					tc.name, i, m.Row, m.Column, wantRow, wantCol)
			}
			busStalls[m.Column] += m.Counters.Stalls[probe.ReasonResultBus]
		}
		for _, cfg := range core.BaseConfigs() {
			n, one := busStalls[cfg.Name()+" N-Bus"], busStalls[cfg.Name()+" 1-Bus"]
			if one <= n {
				t.Errorf("%s %s: 1-Bus attributes %d result-bus stall slots, N-Bus %d; want 1-Bus > N-Bus",
					tc.name, cfg.Name(), one, n)
			}
		}
	}
}

// TestMetricsTable2HasNone: the analytic table runs no machines.
func TestMetricsTable2HasNone(t *testing.T) {
	SetCollectMetrics(true)
	defer SetCollectMetrics(false)
	if tb := Table2(); tb.Metrics != nil {
		t.Errorf("analytic Table 2 carries %d metrics cells", len(tb.Metrics))
	}
}

// TestMetricsEncoders round-trips a synthetic table through both
// encoders.
func TestMetricsEncoders(t *testing.T) {
	c := &probe.Counters{Machine: "Fake", Trace: "lfk05", Runs: 2, Width: 4}
	c.Issued, c.Cycles, c.Slots = 10, 5, 20
	c.Stalls[probe.ReasonResultBus] = 6
	c.Stalls[probe.ReasonDrain] = 4
	tb := &Table{
		Number:  3,
		Columns: []string{"A"},
		Rows:    []Row{{Label: "r", Rates: []float64{1}}},
		Metrics: []CellMetrics{{Row: "r", Column: "A", Counters: c}},
	}

	raw, err := MetricsJSON([]*Table{tb})
	if err != nil {
		t.Fatal(err)
	}
	var decoded []struct {
		Table   int              `json:"table"`
		Row     string           `json:"row"`
		Column  string           `json:"column"`
		Machine string           `json:"machine"`
		Issued  int64            `json:"issued"`
		Slots   int64            `json:"slots"`
		Stalls  map[string]int64 `json:"stalls"`
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("round-tripping metrics JSON: %v", err)
	}
	if len(decoded) != 1 {
		t.Fatalf("JSON has %d records, want 1", len(decoded))
	}
	d := decoded[0]
	if d.Table != 3 || d.Row != "r" || d.Column != "A" || d.Machine != "Fake" ||
		d.Issued != 10 || d.Slots != 20 || d.Stalls["result-bus"] != 6 || d.Stalls["drain"] != 4 {
		t.Errorf("decoded record %+v does not match the counters", d)
	}
	if len(d.Stalls) != probe.NumReasons {
		t.Errorf("JSON stalls map has %d reasons, want %d", len(d.Stalls), probe.NumReasons)
	}

	csvText := MetricsCSV([]*Table{tb})
	lines := strings.Split(strings.TrimSpace(csvText), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV has %d lines, want header + 1 record:\n%s", len(lines), csvText)
	}
	if !strings.Contains(lines[0], "result-bus") || !strings.Contains(lines[0], "drain") {
		t.Errorf("CSV header missing reason columns: %q", lines[0])
	}
	if !strings.Contains(lines[1], "Fake") || !strings.HasPrefix(lines[1], "3,r,A,") {
		t.Errorf("CSV record %q does not carry the cell identity", lines[1])
	}

	// Empty input encodes to an empty JSON array, not null.
	raw, err = MetricsJSON(nil)
	if err != nil || strings.TrimSpace(string(raw)) != "[]" {
		t.Errorf("MetricsJSON(nil) = %q, %v; want []", raw, err)
	}
}

// zeroRateMachine completes instantly: zero instructions, zero
// cycles — a degenerate but non-erroring run whose issue rate is 0.
type zeroRateMachine struct{}

func (zeroRateMachine) Name() string                   { return "ZeroRate" }
func (zeroRateMachine) SetProbe(p probe.Probe)         {}
func (zeroRateMachine) SetRecorder(r *events.Recorder) {}
func (zeroRateMachine) RunChecked(t *trace.Trace, lim core.Limits) (core.Result, error) {
	return core.Result{Machine: "ZeroRate", Trace: t.Name}, nil
}

// TestBatchRejectsNonPositiveRate: a run that completes with a
// non-positive issue rate is a faulted cell — NaN (rendered ERR) plus
// a CellError naming the loop — instead of a literal NaN leaking into
// the table via the harmonic mean.
func TestBatchRejectsNonPositiveRate(t *testing.T) {
	ts := classTraces(loops.Scalar)
	var b batch
	b.cell(machdef.Spec{}, func() core.Machine { return must(core.NewBasic(core.CRAYLike, core.M11BR5)) }, ts)
	b.cell(machdef.Spec{}, func() core.Machine { return zeroRateMachine{} }, ts)
	rates, errs := b.rates()

	if len(rates) != 2 {
		t.Fatalf("got %d rates, want 2", len(rates))
	}
	if !(rates[0] > 0) {
		t.Errorf("healthy cell rate = %v, want positive", rates[0])
	}
	if !math.IsNaN(rates[1]) {
		t.Errorf("zero-rate cell rate = %v, want NaN", rates[1])
	}
	if len(errs) != len(ts) {
		t.Fatalf("%d CellErrors, want one per trace (%d): %v", len(errs), len(ts), errs)
	}
	for j, e := range errs {
		if e.Task != 1 || e.Trace != j {
			t.Errorf("error %d attributed to cell (%d,%d), want (1,%d)", j, e.Task, e.Trace, j)
		}
		if !strings.Contains(e.Error(), "non-positive issue rate") {
			t.Errorf("error %q does not name the non-positive rate", e)
		}
		if e.TraceName == "" {
			t.Errorf("error %v does not name the loop", e)
		}
	}

	// The same failure surfaces through a rendered table: ERR cell,
	// non-empty summary.
	tb := &Table{Number: 0, Title: "zero", Columns: []string{"A"}}
	tb.fill([]string{"row"}, []float64{rates[1]})
	tb.Errors = errs
	if !strings.Contains(tb.Render(), "ERR") {
		t.Errorf("zero-rate cell renders as %q, want ERR", tb.Render())
	}
	if strings.Contains(tb.Render(), "NaN") {
		t.Errorf("literal NaN leaked into render:\n%s", tb.Render())
	}
	if tb.ErrorSummary() == "" {
		t.Error("no error summary for the zero-rate cell")
	}
}
