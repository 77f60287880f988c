package serve

import (
	"fmt"

	"mfup/internal/asm"
	"mfup/internal/cli"
	"mfup/internal/core"
	"mfup/internal/emu"
	"mfup/internal/loops"
	"mfup/internal/runner"
	"mfup/internal/stats"
	"mfup/internal/trace"
)

// work is an executable form of a canonical job: a runner.Task plus
// the labels its per-trace results render under.
type work struct {
	task   runner.Task
	labels []string
}

// buildWork turns a canonical spec into a runnable task. It validates
// everything eagerly — machine construction, assembly, scaling — so a
// job that cannot possibly run fails here with a structured error
// instead of burning a worker slot; the runner's per-cell recover
// remains the backstop for model bugs.
//
// Extrapolation policy: the steady-state engine is bit-identical to
// full simulation by contract, so the service treats the spec's
// Extrapolate as a cost hint, not an observable: it engages when asked
// OR whenever the workload has virtual windows, iterations past a
// kernel's memory layout that core.ScaleKernels closes analytically.
// A kernel that cannot be extended is an error here, never a clamp.
// This is what lets Extrapolate stay out of the cache key without
// ever splitting a key between success and failure.
func buildWork(c JobSpec) (*work, error) {
	// Probe-construct the machine once so configuration errors surface
	// now, as *SpecError material; the task re-constructs privately.
	def := c.Machine.def()
	if _, err := def.New(); err != nil {
		return nil, &SpecError{Msg: err.Error()}
	}

	var (
		traces  []*trace.Trace
		labels  []string
		virtual map[string]int64
	)
	if c.Workload.Asm != "" {
		p, err := asm.Assemble("job.cal", c.Workload.Asm)
		if err != nil {
			return nil, &SpecError{Msg: err.Error()}
		}
		m := emu.New(0)
		m.StepLimit = maxAsmSteps
		if c.Workload.MaxSteps > 0 {
			m.StepLimit = c.Workload.MaxSteps
		}
		t, err := m.Run(p)
		if err != nil {
			return nil, &SpecError{Msg: err.Error()}
		}
		traces = append(traces, t)
		labels = append(labels, t.Name)
	} else {
		ks, err := cli.SelectLoops(c.Workload.Loops)
		if err != nil {
			return nil, &SpecError{Msg: err.Error()}
		}
		if c.Machine.Kind == "vector" {
			if ks, err = loops.VectorCodings(ks); err != nil {
				return nil, &SpecError{Msg: err.Error()}
			}
		}
		w := core.ScaleKernels(ks, c.Scale)
		if w.Err != nil {
			return nil, &SpecError{Msg: w.Err.Error()}
		}
		traces = w.Traces()
		for _, k := range w.Kernels {
			labels = append(labels, k.String())
		}
		virtual = w.Virtual
	}
	if len(traces) == 0 {
		return nil, specErrf("workload selects no traces")
	}

	extrap := c.Extrapolate || len(virtual) > 0
	task := runner.Task{
		New: func() core.Machine {
			m, err := def.New()
			if err != nil {
				// Probe-construction above succeeded, so this cannot
				// happen; if it somehow does, the runner's per-cell
				// recover converts the panic into a CellError.
				panic(err)
			}
			if extrap {
				return core.Extrapolate(m).WithVirtual(virtual)
			}
			return m
		},
		Traces: traces,
	}
	return &work{task: task, labels: labels}, nil
}

// LoopResult is one trace's outcome inside a JobResult.
type LoopResult struct {
	Trace        string  `json:"trace"`
	Instructions int64   `json:"instructions"`
	Cycles       int64   `json:"cycles"`
	Rate         float64 `json:"rate"`
}

// JobResult is the service's result document: per-trace issue rates
// in kernel order plus their harmonic mean, exactly the quantities
// the paper's tables are built from. The daemon caches the *marshaled
// bytes* of this struct, so a warm hit is byte-identical to the run
// that produced it by construction.
type JobResult struct {
	Machine      string       `json:"machine"`
	Config       string       `json:"config"`
	Loops        []LoopResult `json:"loops"`
	HarmonicMean float64      `json:"harmonic_mean"`
}

// resultOf folds one task's per-trace results into the wire document.
// A non-positive rate is reported as the failure it is — it would
// poison the harmonic mean — mirroring the CLI tools.
func resultOf(c JobSpec, w *work, rs []core.Result) (*JobResult, error) {
	jr := &JobResult{Config: core.Config{MemLatency: c.Machine.Mem, BranchLatency: c.Machine.Br}.Name()}
	rates := make([]float64, 0, len(rs))
	for i, r := range rs {
		rate := r.IssueRate()
		if !(rate > 0) {
			return nil, fmt.Errorf("%s: non-positive issue rate %g (%d instructions in %d cycles)",
				w.labels[i], rate, r.Instructions, r.Cycles)
		}
		jr.Machine = r.Machine
		jr.Loops = append(jr.Loops, LoopResult{
			Trace:        w.labels[i],
			Instructions: r.Instructions,
			Cycles:       r.Cycles,
			Rate:         rate,
		})
		rates = append(rates, rate)
	}
	jr.HarmonicMean = stats.HarmonicMean(rates)
	return jr, nil
}
