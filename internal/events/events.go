// Package events records per-instruction pipeline lifecycle events
// from the machine models: when an instruction entered the
// instruction buffer, issued, occupied its functional unit, acquired
// a result bus, wrote back, resolved (branches), and — for the
// buffered machines — allocated and committed its buffer entry. Each
// event carries the instruction's dynamic sequence number
// (trace.Op.Seq) and a cycle timestamp, so a run becomes an
// inspectable timeline rather than a single cycle count.
//
// The Recorder is the sink the machines drive, one Begin/End bracket
// per simulated trace. It mirrors internal/probe's observation-only
// contract: recording never changes timing — simulated cycle counts
// are identical with and without a recorder — and the nil-recorder
// default costs only a predicted-not-taken branch per event site
// (BenchmarkTraceOverhead records it next to BenchmarkProbeOverhead).
// Like a probe, a Recorder is driven from the running goroutine and
// must not be shared across concurrently running machines.
//
// Event storage is bounded: each run keeps at most a configured
// number of events and counts the overflow instead of growing without
// limit, so tracing a long M11BR5 sweep cannot exhaust memory. The
// renderers — WriteChrome (Perfetto/Chrome trace-event JSON) and
// Timeline (plain-text Gantt) — live in this package beside the data
// they render.
package events

import (
	"mfup/internal/isa"
)

// Kind classifies a lifecycle event.
type Kind uint8

// The event kinds, in rough pipeline order. Not every machine emits
// every kind: only the buffered machines (Tomasulo, RUU) allocate and
// commit entries, only the multiple-issue machines fetch into an
// instruction buffer distinct from the issue stage, and only machines
// with a modeled result-bus interconnect acquire bus slots.
const (
	Fetch         Kind = iota // instruction entered the fetch/instruction buffer
	Alloc                     // buffer entry allocated (reservation station, RUU slot)
	Issue                     // instruction left the issue stage
	Exec                      // functional-unit occupancy span (Cycle .. Cycle+Dur)
	ResultBus                 // result-bus slot acquired for the completion cycle
	Writeback                 // result written back (or store completed)
	BranchResolve             // branch outcome known; issue may resume
	Commit                    // buffer entry freed (in-order commit / station release)

	// NumKinds is the number of event kinds.
	NumKinds = int(Commit) + 1
)

var kindNames = [NumKinds]string{
	"fetch", "alloc", "issue", "exec", "result-bus", "writeback",
	"branch-resolve", "commit",
}

// String names the kind as the renderers do.
func (k Kind) String() string {
	if int(k) < NumKinds {
		return kindNames[k]
	}
	return "Kind(?)"
}

// Event is one recorded lifecycle point (or, for Exec, span) of one
// dynamic instruction.
type Event struct {
	Seq   int64 // trace.Op.Seq of the instruction; -1 for machine-level events
	Cycle int64 // cycle the event occurred (span start for Exec)
	Dur   int64 // Exec: busy cycles on the unit; 0 otherwise
	Kind  Kind
	Unit  isa.Unit // Exec/Writeback: the functional-unit class
	Slot  int16    // ResultBus: bus/bank index; Fetch/Issue: station; else 0
}

// Run is the event record of one simulated trace: everything between
// one Begin/End bracket.
type Run struct {
	Machine string
	Trace   string
	Width   int   // issue width (stations/issue units); 1 for single-issue
	Cycles  int64 // total cycle count reported at End

	// Events holds the recorded events in emission order — per
	// instruction that order follows the pipeline, but events of
	// different instructions interleave. At most the recorder's
	// per-run cap are kept; Dropped counts the rest.
	Events  []Event
	Dropped int64
}

// DefaultCap is the per-run event cap when the caller does not choose
// one. At 32 bytes an event, the worst-case run costs ~2 MiB.
const DefaultCap = 1 << 16

// Recorder accumulates event Runs. The zero value is not ready for
// use; construct with NewRecorder.
type Recorder struct {
	perRun int
	runs   []Run
	cur    *Run // run under construction; nil outside Begin/End
}

// NewRecorder returns a recorder keeping at most perRun events per
// Begin/End bracket; perRun <= 0 selects DefaultCap.
func NewRecorder(perRun int) *Recorder {
	if perRun <= 0 {
		perRun = DefaultCap
	}
	return &Recorder{perRun: perRun}
}

// Begin opens a new run. Machines call it once per simulated trace,
// before any event of that run.
func (r *Recorder) Begin(machine, trace string, width int) {
	r.runs = append(r.runs, Run{Machine: machine, Trace: trace, Width: width})
	r.cur = &r.runs[len(r.runs)-1]
}

// End closes the current run, recording its total cycle count.
func (r *Recorder) End(cycles int64) {
	if r.cur != nil {
		r.cur.Cycles = cycles
		r.cur = nil
	}
}

// Runs returns every recorded run, in Begin order. The slice aliases
// the recorder's storage; callers must not append to it while the
// recorder is still attached to a running machine.
func (r *Recorder) Runs() []Run { return r.runs }

// Events returns the total number of events kept across all runs.
func (r *Recorder) Events() int64 {
	var n int64
	for i := range r.runs {
		n += int64(len(r.runs[i].Events))
	}
	return n
}

// Dropped returns the total number of events discarded across all
// runs because the per-run cap was reached.
func (r *Recorder) Dropped() int64 {
	var n int64
	for i := range r.runs {
		n += r.runs[i].Dropped
	}
	return n
}

// Reset discards all recorded runs, keeping the cap.
func (r *Recorder) Reset() {
	r.runs = nil
	r.cur = nil
}

// add appends an event to the current run, honoring the per-run cap.
// An event emitted outside a Begin/End bracket (a machine driven
// without Begin — nothing in this repository does so) opens an
// anonymous run rather than being lost silently.
func (r *Recorder) add(ev Event) {
	if r.cur == nil {
		r.Begin("?", "?", 1)
	}
	if len(r.cur.Events) >= r.perRun {
		r.cur.Dropped++
		return
	}
	r.cur.Events = append(r.cur.Events, ev)
}

// RecordFetch records an instruction entering the instruction buffer
// at station slot.
func (r *Recorder) RecordFetch(seq, cycle int64, slot int) {
	r.add(Event{Seq: seq, Cycle: cycle, Kind: Fetch, Slot: int16(slot)})
}

// RecordAlloc records a buffer entry (reservation station, RUU slot)
// being allocated.
func (r *Recorder) RecordAlloc(seq, cycle int64) {
	r.add(Event{Seq: seq, Cycle: cycle, Kind: Alloc})
}

// RecordIssue records the instruction leaving the issue stage.
func (r *Recorder) RecordIssue(seq, cycle int64) {
	r.add(Event{Seq: seq, Cycle: cycle, Kind: Issue})
}

// RecordExec records the instruction occupying functional unit u for
// busy cycles starting at cycle.
func (r *Recorder) RecordExec(seq, cycle int64, u isa.Unit, busy int64) {
	if busy < 0 {
		busy = 0
	}
	r.add(Event{Seq: seq, Cycle: cycle, Dur: busy, Kind: Exec, Unit: u})
}

// RecordResultBus records the instruction acquiring result-bus slot
// (bank) for its completion cycle.
func (r *Recorder) RecordResultBus(seq, cycle int64, slot int) {
	r.add(Event{Seq: seq, Cycle: cycle, Kind: ResultBus, Slot: int16(slot)})
}

// RecordWriteback records the result of unit u being written back.
func (r *Recorder) RecordWriteback(seq, cycle int64, u isa.Unit) {
	r.add(Event{Seq: seq, Cycle: cycle, Kind: Writeback, Unit: u})
}

// RecordBranchResolve records a branch outcome becoming known.
func (r *Recorder) RecordBranchResolve(seq, cycle int64) {
	r.add(Event{Seq: seq, Cycle: cycle, Kind: BranchResolve})
}

// RecordCommit records the instruction's buffer entry being freed.
func (r *Recorder) RecordCommit(seq, cycle int64) {
	r.add(Event{Seq: seq, Cycle: cycle, Kind: Commit})
}
