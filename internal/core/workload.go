package core

import (
	"fmt"

	"mfup/internal/loops"
	"mfup/internal/trace"
)

// Workload is a kernel selection resolved at one loop length: what
// every caller that runs the Livermore loops at a -scale simulates.
type Workload struct {
	// Kernels are the resolved builds, in selection order.
	Kernels []*loops.Kernel

	// Virtual maps a trace name to the steady-state windows its
	// kernel needs past its materialized build, for WithVirtual.
	Virtual map[string]int64

	// Notes has one line per kernel that falls short of the length.
	Notes []string

	// Err is the first shortfall, for callers that refuse to clamp.
	Err error
}

// Traces returns the kernels' shared traces, in selection order.
func (w Workload) Traces() []*trace.Trace {
	ts := make([]*trace.Trace, len(w.Kernels))
	for i, k := range w.Kernels {
		ts[i] = k.SharedTrace()
	}
	return ts
}

// ScaleKernels resolves ks at loop length n; n <= 0 keeps the given
// builds. A kernel materializes the largest length its memory layout
// supports (loops.ForScale), and the remainder becomes virtual windows
// whenever the extrapolation engine can close it analytically. That
// does not depend on whether the caller asked for the engine: one
// length means one set of iterations, so a content key that omits
// Extrapolate names one rate. A kernel that can reach n neither way
// keeps what it can build, with a note.
func ScaleKernels(ks []*loops.Kernel, n int) Workload {
	if n <= 0 {
		return Workload{Kernels: ks}
	}
	w := Workload{Kernels: make([]*loops.Kernel, 0, len(ks)), Virtual: map[string]int64{}}
	short := func(err error, note string) {
		if w.Err == nil {
			w.Err = err
		}
		w.Notes = append(w.Notes, note)
	}
	for _, base := range ks {
		k, extra, err := loops.ForScale(base.Number, n)
		if err != nil {
			short(err, fmt.Sprintf("%s: %v; using default length %d", base, err, base.N))
			k, extra = base, 0
		}
		if extra > 0 {
			v := int64(0)
			if err = CanExtrapolate(k.SharedTrace()); err == nil {
				v, err = loops.VirtualWindows(k, extra)
			}
			if err != nil {
				short(fmt.Errorf("%s: scale %d needs analytic extension past %d iterations, but %v", k, n, k.N, err),
					fmt.Sprintf("%s: clamped to %d iterations: %v", k, k.N, err))
			} else {
				w.Virtual[k.SharedTrace().Name] = v
			}
		}
		w.Kernels = append(w.Kernels, k)
	}
	return w
}
