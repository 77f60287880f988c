package tables

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"mfup/internal/core"
	"mfup/internal/events"
	"mfup/internal/loops"
	"mfup/internal/machdef"
	"mfup/internal/probe"
	"mfup/internal/runner"
	"mfup/internal/trace"
)

// explodingMachine panics mid-simulation on every trace.
type explodingMachine struct{ inner core.Machine }

func (m *explodingMachine) Name() string                   { return "Exploding" }
func (m *explodingMachine) SetProbe(p probe.Probe)         {}
func (m *explodingMachine) SetRecorder(r *events.Recorder) {}
func (m *explodingMachine) RunChecked(t *trace.Trace, lim core.Limits) (core.Result, error) {
	panic("injected table-cell panic")
}

// TestBatchIsolatesPanickingCell: one exploding cell in a grid yields
// NaN for that cell, a CellError with a stack, and the exact correct
// values everywhere else.
func TestBatchIsolatesPanickingCell(t *testing.T) {
	ts := classTraces(loops.Scalar)
	healthy := func() core.Machine { return must(core.NewBasic(core.CRAYLike, core.M11BR5)) }

	var ref batch
	ref.cell(machdef.Spec{}, healthy, ts)
	ref.cell(machdef.Spec{}, healthy, ts)
	refRates, refErrs := ref.rates()
	if len(refErrs) != 0 {
		t.Fatalf("reference batch failed: %v", refErrs)
	}

	var b batch
	b.cell(machdef.Spec{}, healthy, ts)
	b.cell(machdef.Spec{}, func() core.Machine { return &explodingMachine{} }, ts)
	b.cell(machdef.Spec{}, healthy, ts)
	rates, errs := b.rates()

	if len(rates) != 3 {
		t.Fatalf("got %d rates, want 3", len(rates))
	}
	if rates[0] != refRates[0] || rates[2] != refRates[1] {
		t.Errorf("healthy cells disturbed: %v vs reference %v", rates, refRates)
	}
	if !math.IsNaN(rates[1]) {
		t.Errorf("exploding cell rate = %v, want NaN", rates[1])
	}
	if len(errs) == 0 {
		t.Fatal("no CellErrors reported for the exploding cell")
	}
	for _, e := range errs {
		if e.Task != 1 {
			t.Errorf("error attributed to task %d, want 1: %v", e.Task, e)
		}
		if len(e.Stack) == 0 {
			t.Errorf("cell panic carries no stack: %v", e)
		}
		if !strings.Contains(e.Error(), "injected table-cell panic") {
			t.Errorf("error %q does not name the panic", e)
		}
	}
}

// TestRenderMarksFailedCells: NaN cells render as ERR in text, CSV,
// and as null in JSON, and ErrorSummary names the failures.
func TestRenderMarksFailedCells(t *testing.T) {
	tb := &Table{
		Number:  0,
		Title:   "Fault rendering",
		Columns: []string{"A", "B"},
		Rows:    []Row{{Label: "row", Rates: []float64{1.25, math.NaN()}}},
		Errors: []*runner.CellError{{
			Task: 1, Trace: 0, Machine: "Exploding", TraceName: "lfk05",
			Err: errors.New("injected rendering failure"),
		}},
	}
	text := tb.Render()
	if !strings.Contains(text, "ERR") || !strings.Contains(text, "1.25") {
		t.Errorf("Render() = %q, want both 1.25 and ERR", text)
	}
	if !strings.Contains(tb.CSV(), "ERR") {
		t.Errorf("CSV() = %q, want ERR marker", tb.CSV())
	}
	raw, err := tb.MarshalJSON()
	if err != nil {
		t.Fatalf("MarshalJSON with NaN: %v", err)
	}
	var decoded struct {
		Rows []struct {
			Rates []*float64 `json:"rates"`
		} `json:"rows"`
		Errors []string `json:"errors"`
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("round-tripping JSON: %v", err)
	}
	if got := decoded.Rows[0].Rates; got[0] == nil || *got[0] != 1.25 || got[1] != nil {
		t.Errorf("JSON rates = %v, want [1.25, null]", got)
	}
	if len(decoded.Errors) != 1 {
		t.Errorf("JSON errors = %v, want one entry", decoded.Errors)
	}
	if tb.ErrorSummary() == "" {
		t.Error("ErrorSummary() empty with a failed cell")
	}
	clean := &Table{Number: 1, Title: "t", Columns: []string{"A"}, Rows: []Row{{Label: "r", Rates: []float64{1}}}}
	if clean.ErrorSummary() != "" {
		t.Errorf("ErrorSummary() of clean table = %q, want empty", clean.ErrorSummary())
	}
}

// TestLimitsDoNotDisturbHealthyTables: Table 1 must render
// identically with the production watchdog armed and a generous cell
// timeout — the guards are on the error path only.
func TestLimitsDoNotDisturbHealthyTables(t *testing.T) {
	base := Table1().Render()
	SetLimits(core.DefaultLimits())
	SetCellTimeout(10 * time.Minute)
	defer func() {
		SetLimits(core.Limits{})
		SetCellTimeout(0)
	}()
	guarded := Table1().Render()
	if base != guarded {
		t.Errorf("Table 1 changed under DefaultLimits:\n--- unguarded ---\n%s\n--- guarded ---\n%s", base, guarded)
	}
}

// TestInvalidLimitsFailEveryCell: limits the runner cannot honor,
// set through the package setter, make every simulated cell ERR and
// put the *runner.OptionError in the table's errors; they must not
// panic.
func TestInvalidLimitsFailEveryCell(t *testing.T) {
	SetLimits(core.Limits{MaxCycles: -1})
	defer SetLimits(core.Limits{})
	tab := Table3()
	for _, r := range tab.Rows {
		for _, v := range r.Rates {
			if !math.IsNaN(v) {
				t.Fatalf("row %s: rate %v under invalid limits, want ERR", r.Label, v)
			}
		}
	}
	var oe *runner.OptionError
	if len(tab.Errors) != 1 || !errors.As(tab.Errors[0], &oe) || oe.Field != "Limits.MaxCycles" {
		t.Errorf("errors %v, want the one *runner.OptionError for Limits.MaxCycles", tab.Errors)
	}
}
