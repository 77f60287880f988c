package serve

import (
	"encoding/json"
	"errors"
	"strconv"
	"strings"
	"testing"

	"mfup/internal/loops"
)

// tinyProgram is a minimal valid assembly workload shared by the
// package's tests: five instructions, one load, one store.
const tinyProgram = `
    A1 = 64
    S1 = [A1]
    S2 = S1 +F S1
    S2 = S2 +F S1
    [A1 + 1] = S2
`

// mustKey canonicalizes and hashes, failing the test on spec errors.
func mustKey(t *testing.T, spec JobSpec) string {
	t.Helper()
	c, err := Canonicalize(spec)
	if err != nil {
		t.Fatalf("Canonicalize(%+v): %v", spec, err)
	}
	return Key(c)
}

// mustKeyJSON decodes a wire document and hashes it, the exact path a
// submitted job takes.
func mustKeyJSON(t *testing.T, doc string) string {
	t.Helper()
	var spec JobSpec
	if err := json.Unmarshal([]byte(doc), &spec); err != nil {
		t.Fatalf("decode %s: %v", doc, err)
	}
	return mustKey(t, spec)
}

// JSON field order is presentation, not meaning: the same job spelled
// in two orders must land on the same cache entry.
func TestKeyIgnoresFieldOrder(t *testing.T) {
	a := mustKeyJSON(t, `{"machine":{"kind":"cray","mem":11,"br":5},"workload":{"loops":"1,5"}}`)
	b := mustKeyJSON(t, `{"workload":{"loops":"1,5"},"machine":{"br":5,"mem":11,"kind":"cray"}}`)
	if a != b {
		t.Errorf("field order changed the key: %s vs %s", a, b)
	}
}

// Defaults spelled out and defaults omitted are the same job.
func TestKeyDefaultsSpelledVsOmitted(t *testing.T) {
	bare := mustKey(t, JobSpec{Machine: MachineSpec{Kind: "cray"}})
	spelled := mustKey(t, JobSpec{
		Machine:  MachineSpec{Kind: "CRAY", Mem: 11, Br: 5},
		Workload: WorkloadSpec{Loops: "all"},
	})
	if bare != spelled {
		t.Errorf("spelled-out defaults changed the key: %s vs %s", bare, spelled)
	}

	// "all" and the explicit full list, in any order, are the same
	// selection.
	var nums []string
	for _, k := range loops.All() {
		nums = append(nums, strconv.Itoa(k.Number))
	}
	// Reverse so this also exercises ordering, not just spelling.
	for i, j := 0, len(nums)-1; i < j; i, j = i+1, j-1 {
		nums[i], nums[j] = nums[j], nums[i]
	}
	explicit := mustKey(t, JobSpec{
		Machine:  MachineSpec{Kind: "cray"},
		Workload: WorkloadSpec{Loops: strings.Join(nums, ",")},
	})
	if bare != explicit {
		t.Errorf(`"all" and the explicit reversed list diverged: %s vs %s`, bare, explicit)
	}

	multiBare := mustKey(t, JobSpec{Machine: MachineSpec{Kind: "multi"}})
	multiSpelled := mustKey(t, JobSpec{Machine: MachineSpec{Kind: "multi", Units: 1, Bus: "nbus"}})
	if multiBare != multiSpelled {
		t.Errorf("spelled-out issue defaults changed the key: %s vs %s", multiBare, multiSpelled)
	}
}

// Loop list order is irrelevant: results render in kernel order
// either way, so "5,1" and "1,5" are observably the same job.
func TestKeyIgnoresLoopOrder(t *testing.T) {
	a := mustKey(t, JobSpec{Machine: MachineSpec{Kind: "cray"}, Workload: WorkloadSpec{Loops: "5,1"}})
	b := mustKey(t, JobSpec{Machine: MachineSpec{Kind: "cray"}, Workload: WorkloadSpec{Loops: "1,5"}})
	if a != b {
		t.Errorf("loop order changed the key: %s vs %s", a, b)
	}
	c := mustKey(t, JobSpec{Machine: MachineSpec{Kind: "cray"}, Workload: WorkloadSpec{Loops: "1,5,5"}})
	if a != c {
		t.Errorf("duplicate loop changed the key: %s vs %s", a, c)
	}
}

// Parameters the chosen machine ignores must not split the cache: a
// CRAY is a CRAY no matter what RUU size rides along in the document.
func TestKeyZeroesIrrelevantParameters(t *testing.T) {
	plain := mustKey(t, JobSpec{Machine: MachineSpec{Kind: "cray"}})
	decorated := mustKey(t, JobSpec{Machine: MachineSpec{Kind: "cray", Units: 4, Bus: "xbar", RUU: 50, Stations: 9}})
	if plain != decorated {
		t.Errorf("irrelevant parameters changed the key: %s vs %s", plain, decorated)
	}
}

// Cost and environment knobs — extrapolation, wall-clock timeout,
// emulator step budget — cannot change a completed result, so they
// must not change the key.
func TestKeyExcludesCostKnobs(t *testing.T) {
	base := JobSpec{Machine: MachineSpec{Kind: "cray"}, Workload: WorkloadSpec{Loops: "1"}}
	k := mustKey(t, base)

	withTimeout := base
	withTimeout.TimeoutMS = 30_000
	if got := mustKey(t, withTimeout); got != k {
		t.Errorf("timeout_ms changed the key")
	}

	withExtrap := base
	withExtrap.Extrapolate = true
	if got := mustKey(t, withExtrap); got != k {
		t.Errorf("extrapolate changed the key")
	}

	asmBase := JobSpec{Machine: MachineSpec{Kind: "cray"}, Workload: WorkloadSpec{Asm: tinyProgram}}
	asmSteps := asmBase
	asmSteps.Workload.MaxSteps = 1 << 20
	if mustKey(t, asmBase) != mustKey(t, asmSteps) {
		t.Errorf("maxsteps changed the key")
	}
}

// Every observable field must move the key: two jobs that can produce
// different results must never share a cache entry.
func TestKeyTracksObservableFields(t *testing.T) {
	base := JobSpec{Machine: MachineSpec{Kind: "ruu"}, Workload: WorkloadSpec{Loops: "1"}}
	seen := map[string]string{mustKey(t, base): "base"}
	variants := map[string]JobSpec{
		"mem":         {Machine: MachineSpec{Kind: "ruu", Mem: 5}, Workload: WorkloadSpec{Loops: "1"}},
		"br":          {Machine: MachineSpec{Kind: "ruu", Br: 2}, Workload: WorkloadSpec{Loops: "1"}},
		"units":       {Machine: MachineSpec{Kind: "ruu", Units: 4}, Workload: WorkloadSpec{Loops: "1"}},
		"bus":         {Machine: MachineSpec{Kind: "ruu", Bus: "1bus"}, Workload: WorkloadSpec{Loops: "1"}},
		"ruu":         {Machine: MachineSpec{Kind: "ruu", RUU: 8}, Workload: WorkloadSpec{Loops: "1"}},
		"kind":        {Machine: MachineSpec{Kind: "ooo"}, Workload: WorkloadSpec{Loops: "1"}},
		"loops":       {Machine: MachineSpec{Kind: "ruu"}, Workload: WorkloadSpec{Loops: "2"}},
		"scale":       {Machine: MachineSpec{Kind: "ruu"}, Workload: WorkloadSpec{Loops: "1"}, Scale: 50},
		"maxcycles":   {Machine: MachineSpec{Kind: "ruu"}, Workload: WorkloadSpec{Loops: "1"}, Limits: LimitsSpec{MaxCycles: 9999}},
		"stallcycles": {Machine: MachineSpec{Kind: "ruu"}, Workload: WorkloadSpec{Loops: "1"}, Limits: LimitsSpec{StallCycles: 512}},
	}
	for name, v := range variants {
		k := mustKey(t, v)
		if prev, dup := seen[k]; dup {
			t.Errorf("variant %q collides with %q", name, prev)
		}
		seen[k] = name
	}
}

// Assembly workloads hash the exact source text.
func TestKeyHashesAsmSource(t *testing.T) {
	a := mustKey(t, JobSpec{Machine: MachineSpec{Kind: "cray"}, Workload: WorkloadSpec{Asm: tinyProgram}})
	same := mustKey(t, JobSpec{Machine: MachineSpec{Kind: "cray"}, Workload: WorkloadSpec{Asm: tinyProgram}})
	if a != same {
		t.Errorf("identical source produced different keys")
	}
	other := mustKey(t, JobSpec{Machine: MachineSpec{Kind: "cray"}, Workload: WorkloadSpec{Asm: tinyProgram + "\n"}})
	if a == other {
		t.Errorf("different source text shares a key")
	}
	loop := mustKey(t, JobSpec{Machine: MachineSpec{Kind: "cray"}, Workload: WorkloadSpec{Loops: "1"}})
	if a == loop {
		t.Errorf("asm and loop workloads share a key")
	}
}

// The vector machine resolves selections to its vector codings, so
// "all" and the explicit vectorizable list agree there too.
func TestKeyVectorSelection(t *testing.T) {
	all := mustKey(t, JobSpec{Machine: MachineSpec{Kind: "vector"}})
	var nums []string
	for _, k := range loops.VectorKernels() {
		nums = append(nums, strconv.Itoa(k.Number))
	}
	explicit := mustKey(t, JobSpec{
		Machine:  MachineSpec{Kind: "vector"},
		Workload: WorkloadSpec{Loops: strings.Join(nums, ",")},
	})
	if all != explicit {
		t.Errorf("vector 'all' and explicit codings diverged: %s vs %s", all, explicit)
	}
}

// TestBuildWorkBoundsAsmTrace: an asm job that never halts, submitted
// without maxsteps, traces at most maxAsmSteps instructions and fails
// with the step limit as a *SpecError, instead of holding an unbounded
// trace in memory until the daemon is killed.
func TestBuildWorkBoundsAsmTrace(t *testing.T) {
	const spin = "    A0 = 1\n    A7 = 0\nloop:\n    A0 = A0 - A7\n    JAN loop\n"
	c, err := Canonicalize(JobSpec{Machine: MachineSpec{Kind: "cray"}, Workload: WorkloadSpec{Asm: spin}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = buildWork(c)
	var serr *SpecError
	if !errors.As(err, &serr) || !strings.Contains(err.Error(), "step limit") {
		t.Fatalf("buildWork(spin loop) = %v, want a *SpecError naming the step limit", err)
	}
}

// Structurally invalid specs are refused with *SpecError, one per
// rejection rule.
func TestCanonicalizeRejections(t *testing.T) {
	cases := map[string]JobSpec{
		"unknown kind":        {Machine: MachineSpec{Kind: "dataflow"}},
		"negative mem":        {Machine: MachineSpec{Kind: "cray", Mem: -1}},
		"negative units":      {Machine: MachineSpec{Kind: "multi", Units: -2}},
		"bad bus":             {Machine: MachineSpec{Kind: "multi", Bus: "ring"}},
		"ruu under units":     {Machine: MachineSpec{Kind: "ruu", Units: 8, RUU: 2}},
		"ruu crossbar":        {Machine: MachineSpec{Kind: "ruu", Bus: "xbar"}},
		"loops and asm":       {Machine: MachineSpec{Kind: "cray"}, Workload: WorkloadSpec{Loops: "1", Asm: tinyProgram}},
		"bad loop spec":       {Machine: MachineSpec{Kind: "cray"}, Workload: WorkloadSpec{Loops: "1,,2"}},
		"unknown loop":        {Machine: MachineSpec{Kind: "cray"}, Workload: WorkloadSpec{Loops: "99"}},
		"negative scale":      {Machine: MachineSpec{Kind: "cray"}, Scale: -5},
		"vector scale":        {Machine: MachineSpec{Kind: "vector"}, Scale: 100},
		"vector asm":          {Machine: MachineSpec{Kind: "vector"}, Workload: WorkloadSpec{Asm: tinyProgram}},
		"asm scale":           {Machine: MachineSpec{Kind: "cray"}, Workload: WorkloadSpec{Asm: tinyProgram}, Scale: 100},
		"negative maxcyc":     {Machine: MachineSpec{Kind: "cray"}, Limits: LimitsSpec{MaxCycles: -1}},
		"negative stall":      {Machine: MachineSpec{Kind: "cray"}, Limits: LimitsSpec{StallCycles: -1}},
		"negative timeout":    {Machine: MachineSpec{Kind: "cray"}, TimeoutMS: -1},
		"negative maxsteps":   {Machine: MachineSpec{Kind: "cray"}, Workload: WorkloadSpec{Asm: tinyProgram, MaxSteps: -1}},
		"maxsteps past bound": {Machine: MachineSpec{Kind: "cray"}, Workload: WorkloadSpec{Asm: tinyProgram, MaxSteps: maxAsmSteps + 1}},
		"ruu past bound":      {Machine: MachineSpec{Kind: "ruu", Units: 4, RUU: 200_000_000}, Workload: WorkloadSpec{Loops: "1"}},
		"units past bound":    {Machine: MachineSpec{Kind: "multi", Units: 200_000_000}},
		"mem past bound":      {Machine: MachineSpec{Kind: "cray", Mem: 1 << 62}},
	}
	for name, spec := range cases {
		if _, err := Canonicalize(spec); err == nil {
			t.Errorf("%s: accepted", name)
		} else if _, ok := err.(*SpecError); !ok {
			t.Errorf("%s: error %v (%T), want *SpecError", name, err, err)
		}
	}
}
