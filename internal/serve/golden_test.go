package serve

import (
	"encoding/json"
	"strconv"
	"testing"

	"mfup/internal/dse"
	"mfup/internal/machdef"
	"mfup/internal/tables"
)

// goldenKeys pins the content keys that name journal lines on disk:
// serve job keys with their canonical loop strings, dse point and
// sweep keys, and the tables checkpoint signature. Every want predates
// the workload resolver (core.ScaleKernels), so a refactor that
// respells any key fails here instead of silently orphaning warm
// caches.
//
// kind selects the key: "job" decodes input as a JobSpec, "point" as
// a dse.PointSpec, "sweep" as a dse.SweepSpec, and "tables" reads it
// as the SetScale loop length of tables.JournalSignature.
var goldenKeys = []struct {
	desc  string
	kind  string
	input string
	loops string // canonical Workload.Loops, for jobs
	want  string
}{
	{
		desc:  "paper defaults",
		kind:  "job",
		input: `{"machine":{"kind":"cray"}}`,
		loops: "1,2,3,4,5,6,7,8,9,10,11,12,13,14",
		want:  "2430be275a1ac19a03f1f5355bcd6576c6cae33e809e7f8e16f0d011c3f2d1cf",
	},
	{
		desc:  "reordered, spaced, repeated kernel list",
		kind:  "job",
		input: `{"machine":{"kind":" CRAY","mem":11,"br":5},"workload":{"loops":" 14, 5 ,1,5"}}`,
		loops: "1,5,14",
		want:  "c47384fc31e0d13f822002bcb61dff76e7a92192aa6544d5a3ca9b91adf57eab",
	},
	{
		desc:  "multi-issue machine with a bus alias and ignored knobs",
		kind:  "job",
		input: `{"machine":{"kind":"ooo","units":4,"bus":"N-BUS","ruu":30,"stations":8},"workload":{"loops":"scalar"}}`,
		loops: "5,6,11,13,14",
		want:  "1b691f167f8d7842af296850c887c2edacc760aa57efa47cd37761b3608baf51",
	},
	{
		desc:  "RUU machine with its defaults spelled out",
		kind:  "job",
		input: `{"machine":{"kind":"ruu","units":2,"bus":"1-BUS","ruu":50},"workload":{"loops":"vector"}}`,
		loops: "1,2,3,4,7,8,9,10,12",
		want:  "789f54c7cf9074757b22e50da911a7d63e6483d7935e519940695125776603e6",
	},
	{
		desc:  "Tomasulo with stations and ignored issue knobs",
		kind:  "job",
		input: `{"machine":{"kind":"Tomasulo","mem":5,"br":2,"units":3,"bus":"1bus","stations":2},"workload":{"loops":"all"}}`,
		loops: "1,2,3,4,5,6,7,8,9,10,11,12,13,14",
		want:  "f6fd6a31b808987ab32794cfdb81cec5bee6063c252e4432d17a6d1070cad6cc",
	},
	{
		desc:  "vector machine over all loops",
		kind:  "job",
		input: `{"machine":{"kind":"vector"},"workload":{"loops":"all"}}`,
		loops: "1,2,3,4,7,8,9,10,12",
		want:  "aa89b7a491bccb9540195c4ddedce18e46877e1e9b6bcdee26dbf2166168b465",
	},
	{
		desc:  "vector machine over a mixed list",
		kind:  "job",
		input: `{"machine":{"kind":"vector"},"workload":{"loops":"1,5,8,2"}}`,
		loops: "1,2,8",
		want:  "22debc9893cbd399d414b7618cbc7fe40c081c0aec0546f8156cb409b93ade66",
	},
	{
		desc:  "scaled and extrapolated",
		kind:  "job",
		input: `{"machine":{"kind":"ooo","units":2},"workload":{"loops":"1,7"},"scale":1000,"extrapolate":true}`,
		loops: "1,7",
		want:  "a67906caf2714a78d2b64b5d6779a24ec93c5986ad620fe3aa3f04edde74c05b",
	},
	{
		desc:  "scaled past a layout maximum",
		kind:  "job",
		input: `{"machine":{"kind":"cray"},"workload":{"loops":"10,1"},"scale":100000}`,
		loops: "1,10",
		want:  "f9d610a8308d5f3af94731178776b9d72d7e60420dd2c18fcda2222a713243af",
	},
	{
		desc:  "assembly with cost knobs",
		kind:  "job",
		input: `{"machine":{"kind":"scoreboard"},"workload":{"asm":"    A1 = 64\n    S1 = [A1]\n    S2 = S1 +F S1\n","maxsteps":1000},"timeout_ms":250}`,
		want:  "06c7cc791a72e8dc2fc34baef57eeefddb3b0e9cf85b7a61b43e2f41e58d41fd",
	},
	{
		desc:  "limits",
		kind:  "job",
		input: `{"machine":{"kind":"simple","mem":20,"br":8},"workload":{"loops":"11,12"},"limits":{"maxcycles":1000000,"stallcycles":5000}}`,
		loops: "11,12",
		want:  "ac53840c3825dca6b5fc9853f09d6f8c869331735c7865b5dc542795fe2faeec",
	},
	{
		desc:  "multi-issue scaled inside the layout",
		kind:  "job",
		input: `{"machine":{"kind":"multi","units":3,"bus":"1bus"},"workload":{"loops":"scalar"},"scale":200}`,
		loops: "5,6,11,13,14",
		want:  "d74be8751c33a2cf5769e46578476ff65598d6c41257e380a1016644dab86e4a",
	},
	{
		desc:  "point at paper length",
		kind:  "point",
		input: `{"spec":{"kind":"cray"}}`,
		want:  "dse-point/v1:loops=scalar:scale=0:machdef=b8ace19b4ebb8b0ee606039711b2bd46b11738197a3ef0a8bf62af266874e72c",
	},
	{
		desc:  "point at scale 100000",
		kind:  "point",
		input: `{"spec":{"kind":"ruu","width":2,"ruu":25},"loops":"vectorizable","scale":100000,"extrapolate":true}`,
		want:  "dse-point/v1:loops=vectorizable:scale=100000:machdef=8226af3aa3e9c350e4c40270693b2dd5b74264a507b43da214d650002607a44c",
	},
	{
		desc:  "scalar sweep at paper length",
		kind:  "sweep",
		input: `{"base":{"kind":"ooo"},"axes":{"width":[1,2,4]}}`,
		want:  "f7cc41ca8dcc875089cc6abd5503841ba7dc96f81e7995b1bf4bcf707c3ddfb4",
	},
	{
		desc:  "vectorizable sweep at paper length",
		kind:  "sweep",
		input: `{"base":{"kind":"ooo","mem":11,"br":5},"axes":{"kind":["multi","ruu"],"bus":["nbus","1bus"]},"loops":"vectorizable","prune":{"margin":0.15,"keep":4}}`,
		want:  "707adbcc0c95661e634c7013e39e08a4fdc379b1c2fac41543f6c1371121f6ab",
	},
	{
		desc:  "scalar sweep at scale 100000",
		kind:  "sweep",
		input: `{"base":{"kind":"ooo","mem":11,"br":5},"axes":{"width":[1,2],"mem":[5,11]},"scale":100000,"extrapolate":true}`,
		want:  "8d5f86bfe5ee76eb02486a4e5871665e21e90d48c8ae8ac5d1261af933f28638",
	},
	{
		desc:  "vectorizable sweep at scale 100000",
		kind:  "sweep",
		input: `{"base":{"kind":"ruu"},"axes":{"ruu":[25,50]},"loops":"vectorizable","scale":100000}`,
		want:  "9e0f66d3b698fffc9e4f1b29ecf2e5a50557a30ffe52fca029d2e38b3fe11079",
	},
	{desc: "tables signature at paper length", kind: "tables", input: "0", want: "2584bf2ea48a9bdaa9a1d63fade9bcd01fb83c6189e430021ae81ff5e5b26da8"},
	{desc: "tables signature at scale 100000", kind: "tables", input: "100000", want: "daa85cf01769f2494e71196337016eea2f1a7c4ab064681ba708d4a6b25d0917"},
}

func TestGoldenKeys(t *testing.T) {
	defer tables.SetScale(0)
	for _, tc := range goldenKeys {
		var got, loops string
		switch tc.kind {
		case "job":
			var spec JobSpec
			if err := json.Unmarshal([]byte(tc.input), &spec); err != nil {
				t.Fatalf("%q: decode: %v", tc.desc, err)
			}
			c, err := Canonicalize(spec)
			if err != nil {
				t.Fatalf("%q: %v", tc.desc, err)
			}
			got, loops = Key(c), c.Workload.Loops
		case "point":
			var p dse.PointSpec
			if err := json.Unmarshal([]byte(tc.input), &p); err != nil {
				t.Fatalf("%q: decode: %v", tc.desc, err)
			}
			c, err := p.Canonicalize()
			if err != nil {
				t.Fatalf("%q: %v", tc.desc, err)
			}
			got = c.Key()
		case "sweep":
			s, err := dse.Parse([]byte(tc.input)) // Parse canonicalizes
			if err != nil {
				t.Fatalf("%q: %v", tc.desc, err)
			}
			got = s.Key()
		case "tables":
			n, err := strconv.Atoi(tc.input)
			if err != nil {
				t.Fatalf("%q: %v", tc.desc, err)
			}
			tables.SetScale(n)
			got = tables.JournalSignature()
		default:
			t.Fatalf("%q: unknown kind %q", tc.desc, tc.kind)
		}
		if got != tc.want {
			t.Errorf("%q: key %s, want %s", tc.desc, got, tc.want)
		}
		if loops != tc.loops {
			t.Errorf("%q: canonical loops %q, want %q", tc.desc, loops, tc.loops)
		}
	}
}

// FuzzCanonicalize decodes arbitrary bytes into a JobSpec. A spec that
// Canonicalize accepts must be a fixed point of it, under the same
// key; its machine must build, so an unbuildable machine is a 400 at
// admission rather than a failed job; and buildWork must turn it into
// a task or a *SpecError without panicking: a 400, never a crashed
// worker.
func FuzzCanonicalize(f *testing.F) {
	for _, tc := range goldenKeys {
		if tc.kind == "job" {
			f.Add([]byte(tc.input))
		}
	}
	f.Add([]byte(`{"machine":{"kind":"ruu","bus":"xbar"}}`))
	// Past the construction bounds: admitted and fatal to New before
	// Canonicalize validated the compiled config.
	f.Add([]byte(`{"machine":{"kind":"ruu","units":4,"ruu":200000000},"workload":{"loops":"1"}}`))
	f.Add([]byte(`{"machine":{"kind":"multi","units":200000000}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec JobSpec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		c, err := Canonicalize(spec)
		if err != nil {
			return
		}
		again, err := Canonicalize(c)
		if err != nil {
			t.Fatalf("canonical spec %+v rejected: %v", c, err)
		}
		if again != c || Key(again) != Key(c) {
			t.Fatalf("Canonicalize is not idempotent:\n once  %+v (%s)\n twice %+v (%s)", c, Key(c), again, Key(again))
		}
		def, err := machdef.Canonicalize(c.Machine.def())
		if err == nil {
			_, err = def.New()
		}
		if err != nil {
			t.Fatalf("accepted machine %+v does not build: %v", c.Machine, err)
		}
		// An emulator budget only decides whether tracing fails and is
		// outside the key; bounding it keeps a looping program cheap.
		if c.Workload.Asm != "" && (c.Workload.MaxSteps == 0 || c.Workload.MaxSteps > 100_000) {
			c.Workload.MaxSteps = 100_000
		}
		if _, err := buildWork(c); err != nil {
			if _, ok := err.(*SpecError); !ok {
				t.Fatalf("buildWork(%+v): %v (%T), want *SpecError", c, err, err)
			}
		}
	})
}
