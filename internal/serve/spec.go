// Package serve is the simulation-as-a-service layer: a fault-tolerant
// HTTP/JSON job daemon over the simulator suite.
//
// Clients POST jobs — a machine specification, a workload (built-in
// Livermore loops or assembly source), simulation limits, and an
// optional loop-length scale — and poll or block for results. The
// paper's tables are pure functions of exactly these inputs, which
// makes the service an ideal deduplicating compute cache: every job
// spec canonicalizes to a content address (SHA-256), identical cells
// are computed once ever, and a restarted daemon serves warm results
// byte-identically from its journal.
//
// Robustness is layered end to end:
//
//   - admission control: a token-bucket rate limiter and a bounded
//     job queue shed load explicitly (429 + Retry-After) instead of
//     collapsing under it, and every accepted job carries a deadline
//     plumbed into the simulation guard (internal/simerr);
//   - fault containment: jobs run through runner.RunCheckedStats (per-cell
//     recover, transient retry with backoff), and a circuit breaker
//     quarantines a (machine, workload) pair after repeated permanent
//     failures instead of re-burning cycles on it;
//   - durability: the content-addressed result cache appends to an
//     internal/journal store through the "write.cache" fault site;
//   - graceful lifecycle: /healthz and /readyz, SIGTERM drain (stop
//     admitting, finish in-flight jobs, flush the journal), and
//     serve.accept / serve.respond fault-injection sites so the chaos
//     harness can kill, stall, and corrupt the daemon deterministically.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"mfup/internal/cli"
	"mfup/internal/loops"
	"mfup/internal/machdef"
)

// JobSpec is the wire form of one simulation job. The JSON field
// order of a submitted document never matters: specs are decoded into
// this struct and canonicalized before anything else looks at them.
type JobSpec struct {
	Machine  MachineSpec  `json:"machine"`
	Workload WorkloadSpec `json:"workload"`
	Limits   LimitsSpec   `json:"limits,omitempty"`

	// Scale rebuilds every selected kernel at this loop length instead
	// of the paper defaults (0 = defaults). Lengths beyond a kernel's
	// memory layout extend analytically (core.ScaleKernels); a kernel
	// that cannot be extended fails the job.
	Scale int `json:"scale,omitempty"`

	// Extrapolate closes each loop's steady-state middle analytically.
	// It is a pure cost knob — the engine's results are bit-identical
	// to full simulation by contract — so it does NOT enter the cache
	// key: a job submitted with it hits the cache entry computed
	// without it, and vice versa.
	Extrapolate bool `json:"extrapolate,omitempty"`

	// TimeoutMS is the job's wall-clock deadline in milliseconds,
	// measured from admission (queue wait counts). 0 means the
	// server's default. Wall-clock limits shape whether a job fails,
	// never the values of a completed result, so the timeout does NOT
	// enter the cache key either.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// MachineSpec is the wire form of the machdef.Spec fields a job can
// set, in the vocabulary of the mfusim flags: Units is machdef's Width.
// Canonicalize validates and normalizes it through internal/machdef.
type MachineSpec struct {
	// Kind: simple | serialmem | nonseg | cray | scoreboard |
	// tomasulo | multi | ooo | ruu | vector.
	Kind string `json:"kind"`

	Mem      int    `json:"mem,omitempty"`      // memory access cycles; default 11
	Br       int    `json:"br,omitempty"`       // branch execution cycles; default 5
	Units    int    `json:"units,omitempty"`    // issue units (multi, ooo, ruu); default 1
	Bus      string `json:"bus,omitempty"`      // nbus | 1bus | xbar (multi, ooo; ruu takes nbus or 1bus); default nbus
	RUU      int    `json:"ruu,omitempty"`      // RUU entries (ruu); default 50
	Stations int    `json:"stations,omitempty"` // stations per unit (tomasulo); default 4
}

// WorkloadSpec selects the traces the job runs: built-in Livermore
// loops, or one assembly program traced on the architectural emulator.
type WorkloadSpec struct {
	// Loops is a loop spec as the CLIs accept it: "all", "scalar",
	// "vector", or comma-separated kernel numbers. Default "all".
	Loops string `json:"loops,omitempty"`

	// Asm, when non-empty, is CRAY-like assembly source; it is
	// assembled and traced instead of the built-in loops. Mutually
	// exclusive with Loops.
	Asm string `json:"asm,omitempty"`

	// MaxSteps bounds the emulator when tracing Asm: 0 means
	// maxAsmSteps, which is also the largest budget accepted. A budget
	// only decides whether tracing fails — an exceeded budget is an
	// error, not a shorter trace — so it does NOT enter the cache key.
	MaxSteps int64 `json:"maxsteps,omitempty"`
}

// maxAsmSteps is the default and the largest MaxSteps of an asm job:
// the daemon holds the whole trace in memory, some hundreds of bytes
// per dynamic instruction, so a request may not ask for more.
const maxAsmSteps = 1 << 20

// LimitsSpec bounds the simulation itself. Both limits change what a
// job observably produces (a blown budget fails the job), so both
// enter the cache key.
type LimitsSpec struct {
	MaxCycles   int64 `json:"maxcycles,omitempty"`   // simulated-cycle budget per trace; 0 = unlimited
	StallCycles int64 `json:"stallcycles,omitempty"` // no-forward-progress watchdog; 0 = off
}

// SpecError is a structurally invalid job spec: the admission path
// maps it to HTTP 400.
type SpecError struct{ Msg string }

func (e *SpecError) Error() string { return "spec: " + e.Msg }

func specErrf(format string, args ...any) error {
	return &SpecError{Msg: fmt.Sprintf(format, args...)}
}

// Canonicalize validates spec and rewrites it into the one normal
// form that two semantically identical submissions share:
//
//   - the machine is machdef.Canonicalize's normal form: the kind
//     lowercased, defaults spelled out (mem 11, br 5, ...), and the
//     parameters the kind ignores zeroed, so "a CRAY with ruu:50" and
//     "a CRAY" are the same spec — units included, which a
//     single-issue kind ignores here where machdef would refuse them;
//   - loop selections ("all" included) are resolved to kernel numbers,
//     deduplicated, and sorted — the service renders per-loop results
//     in kernel order, so "5,1" and "1,5" are observably identical;
//   - cost and environment knobs that cannot change a completed
//     result (Extrapolate, TimeoutMS, MaxSteps) are preserved for
//     execution but excluded from the cache key.
//
// The canonical form is what Key hashes.
func Canonicalize(spec JobSpec) (JobSpec, error) {
	c := spec

	// Machine: machdef's normal form, after the one wire leniency.
	m := c.Machine.def()
	if !machdef.MultiIssue(m.Kind) {
		m.Width = 0
	}
	m, err := machdef.Canonicalize(m)
	if err != nil {
		return c, &SpecError{Msg: err.Error()}
	}
	c.Machine = MachineSpec{Kind: m.Kind, Mem: m.Mem, Br: m.Br, Units: m.Width, Bus: m.Bus, RUU: m.RUU, Stations: m.Stations}

	// Workload.
	c.Workload.Asm = spec.Workload.Asm
	if c.Workload.Asm != "" {
		if strings.TrimSpace(c.Workload.Loops) != "" {
			return c, specErrf("workload gives both loops and asm; pick one")
		}
		if c.Workload.MaxSteps < 0 {
			return c, specErrf("maxsteps %d is negative (0 = the default, %d steps)", c.Workload.MaxSteps, maxAsmSteps)
		}
		if c.Workload.MaxSteps > maxAsmSteps {
			return c, specErrf("maxsteps %d exceeds the limit of %d steps", c.Workload.MaxSteps, maxAsmSteps)
		}
		if c.Machine.Kind == "vector" {
			return c, specErrf("the vector machine runs the built-in vector codings, not assembly sources")
		}
		c.Workload.Loops = ""
	} else {
		if c.Workload.Loops == "" {
			c.Workload.Loops = "all"
		}
		ks, err := cli.SelectLoops(c.Workload.Loops)
		if err != nil {
			return c, &SpecError{Msg: err.Error()}
		}
		if c.Machine.Kind == "vector" {
			// The vector machine runs the vectorized codings; kernels
			// without one drop out of the selection, as in mfusim.
			if ks, err = loops.VectorCodings(ks); err != nil {
				return c, &SpecError{Msg: err.Error()}
			}
		}
		nums := make([]int, len(ks))
		for i, k := range ks {
			nums[i] = k.Number
		}
		sort.Ints(nums)
		parts := make([]string, len(nums))
		for i, n := range nums {
			parts[i] = strconv.Itoa(n)
		}
		c.Workload.Loops = strings.Join(parts, ",")
		c.Workload.MaxSteps = 0
	}

	// Scale.
	if c.Scale < 0 {
		return c, specErrf("scale %d is negative (0 = paper defaults)", c.Scale)
	}
	if c.Scale > 0 {
		if c.Machine.Kind == "vector" {
			return c, specErrf("scale does not apply to the vector machine: the vector codings are fixed at the paper lengths")
		}
		if c.Workload.Asm != "" {
			return c, specErrf("scale does not apply to assembly workloads")
		}
	}

	// Limits and deadline.
	if c.Limits.MaxCycles < 0 {
		return c, specErrf("maxcycles %d is negative (0 = unlimited)", c.Limits.MaxCycles)
	}
	if c.Limits.StallCycles < 0 {
		return c, specErrf("stallcycles %d is negative (0 = off)", c.Limits.StallCycles)
	}
	if c.TimeoutMS < 0 {
		return c, specErrf("timeout_ms %d is negative (0 = the server default)", c.TimeoutMS)
	}
	return c, nil
}

// keySpec is the exact observable surface of a job: the fields whose
// values can change a *completed* result. Everything else — the
// extrapolation engine (bit-identical by contract), wall-clock
// timeouts, emulator step budgets (failure-shaping only) — stays out,
// so semantically identical jobs share one cache entry. The struct's
// field order fixes the hash preimage; changing it invalidates every
// cache on disk, so treat it like a file format.
type keySpec struct {
	Kind        string `json:"kind"`
	Mem         int    `json:"mem"`
	Br          int    `json:"br"`
	Units       int    `json:"units"`
	Bus         string `json:"bus"`
	RUU         int    `json:"ruu"`
	Stations    int    `json:"stations"`
	Loops       string `json:"loops"`
	AsmSHA      string `json:"asm,omitempty"` // hash of the exact source text
	Scale       int    `json:"scale"`
	MaxCycles   int64  `json:"maxcycles"`
	StallCycles int64  `json:"stallcycles"`
}

// Key returns the content address of a canonical spec: the SHA-256,
// in hex, of its observable fields. Call Canonicalize first — hashing
// a raw spec would split semantically identical jobs across entries.
func Key(c JobSpec) string {
	ks := keySpec{
		Kind:        c.Machine.Kind,
		Mem:         c.Machine.Mem,
		Br:          c.Machine.Br,
		Units:       c.Machine.Units,
		Bus:         c.Machine.Bus,
		RUU:         c.Machine.RUU,
		Stations:    c.Machine.Stations,
		Loops:       c.Workload.Loops,
		Scale:       c.Scale,
		MaxCycles:   c.Limits.MaxCycles,
		StallCycles: c.Limits.StallCycles,
	}
	if c.Workload.Asm != "" {
		src := sha256.Sum256([]byte(c.Workload.Asm))
		ks.AsmSHA = hex.EncodeToString(src[:])
	}
	b, err := json.Marshal(ks)
	if err != nil {
		// A struct of strings and ints cannot fail to marshal.
		panic(fmt.Sprintf("serve: marshaling key spec: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// def maps the wire struct onto machdef's vocabulary, where units is
// the issue width. A canonical MachineSpec maps to a canonical Spec.
func (m MachineSpec) def() machdef.Spec {
	return machdef.Spec{Kind: m.Kind, Mem: m.Mem, Br: m.Br, Width: m.Units, Bus: m.Bus, RUU: m.RUU, Stations: m.Stations}
}
