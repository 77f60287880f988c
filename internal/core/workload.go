package core

import (
	"fmt"
	"slices"
	"sync"

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

// WorkloadMemo remembers the last ScaleKernels resolution. A holder
// that resolves the same selection at the same length again, as every
// plan and routed point of a sweep does, reuses that resolution's
// kernels: their decode, their period and nest analyses, and the
// reduced traces their ladders cached. It holds one entry, so it keeps
// one workload alive between calls until a call at another key
// replaces it; a cache per kernel would pin every length a caller
// ever asked for. The zero value is ready to use.
type WorkloadMemo struct {
	mu sync.Mutex
	ks []*loops.Kernel // the last selection, compared by pointer
	n  int
	w  Workload
	ok bool
}

// Scale returns ScaleKernels(ks, n), resolving only when ks (by
// pointer, in order) or n differs from the last call's. The lock is
// held while resolving, so concurrent callers of one key wait for one
// build. The returned Workload is shared and read-only: its Kernels
// and Notes are clipped, so an append copies them, and Virtual must
// not be written.
func (m *WorkloadMemo) Scale(ks []*loops.Kernel, n int) Workload {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.ok || m.n != n || !slices.Equal(m.ks, ks) {
		key := slices.Clone(ks)
		w := ScaleKernels(key, n)
		w.Kernels, w.Notes = slices.Clip(w.Kernels), slices.Clip(w.Notes)
		m.ks, m.n, m.w, m.ok = key, n, w, true
	}
	return m.w
}
