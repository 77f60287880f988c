// Customkernel shows the full user workflow on code that is not part
// of the built-in suite: write a kernel in the CRAY-like assembly
// language, lay out its data, trace it, compare machines on it, and
// measure how far the code sits from its own dataflow limit.
//
// The kernel is a dot product in two codings: the straightforward
// loop and a 4-way unrolled version with four partial sums. The
// unrolled coding shortens the recurrence (one floating add per four
// elements per chain), which single-issue machines cannot exploit but
// the RUU machine can — the same interplay between coding and issue
// logic that §4 of the paper points out when it notes the
// pseudo-dataflow limit is a property of the encoding.
//
// Run with:
//
//	go run ./examples/customkernel
package main

import (
	"fmt"
	"log"

	"mfup"
)

const n = 256 // elements; divisible by 4 for the unrolled version

const xBase, yBase, qAddr = 0x1000, 0x2000, 0x100

var simple = fmt.Sprintf(`
; dot product, straightforward coding
    A1 = %d          ; &x
    A2 = %d          ; &y
    A7 = 1
    A0 = %d
    S1 = 0
loop:
    A0 = A0 - A7
    S2 = [A1]
    S3 = [A2]
    S4 = S2 *F S3
    S1 = S1 +F S4
    A1 = A1 + A7
    A2 = A2 + A7
    JAN loop
    A3 = %d
    [A3] = S1
`, xBase, yBase, n, qAddr)

var unrolled = fmt.Sprintf(`
; dot product, 4-way unrolled with four partial sums
    A1 = %d          ; &x
    A2 = %d          ; &y
    A7 = 1
    A0 = %d          ; n/4 trips
    S1 = 0
    S2 = 0
    S3 = 0
    S4 = 0
loop:
    A0 = A0 - A7
    S5 = [A1]
    S6 = [A2]
    S5 = S5 *F S6
    S1 = S1 +F S5
    S5 = [A1 + 1]
    S6 = [A2 + 1]
    S5 = S5 *F S6
    S2 = S2 +F S5
    S5 = [A1 + 2]
    S6 = [A2 + 2]
    S5 = S5 *F S6
    S3 = S3 +F S5
    S5 = [A1 + 3]
    S6 = [A2 + 3]
    S5 = S5 *F S6
    S4 = S4 +F S5
    A1 = A1 + 4
    A2 = A2 + 4
    JAN loop
    S1 = S1 +F S2
    S3 = S3 +F S4
    S1 = S1 +F S3
    A3 = %d
    [A3] = S1
`, xBase, yBase, n/4, qAddr)

func main() {
	for _, v := range []struct{ name, src string }{
		{"simple", simple},
		{"unrolled x4", unrolled},
	} {
		prog, err := mfup.Assemble(v.name, v.src)
		if err != nil {
			log.Fatal(err)
		}
		m := mfup.NewEmuMachine(0)
		for i := 0; i < n; i++ {
			m.SetFloat(xBase+int64(i), 1+float64(i)/n)
			m.SetFloat(yBase+int64(i), 2-float64(i)/n)
		}
		tr, err := mfup.TraceProgram(m, prog)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== %s: %d dynamic instructions, result %.6f ==\n",
			v.name, tr.Len(), m.Float(qAddr))

		cfg := mfup.M11BR5
		crayM := must(mfup.NewBasic(mfup.CRAYLike, cfg))
		ruuM := must(mfup.NewRUU(cfg.WithIssue(4, mfup.BusN).WithRUU(50)))
		cray := must(crayM.RunChecked(tr, mfup.SimLimits{}))
		ruu := must(ruuM.RunChecked(tr, mfup.SimLimits{}))
		lim := mfup.ComputeLimits(tr, cfg, mfup.Pure)
		fmt.Printf("CRAY-like single issue:  %.3f/cycle\n", cray.IssueRate())
		fmt.Printf("RUU 4 units, 50 entries: %.3f/cycle\n", ruu.IssueRate())
		fmt.Printf("dataflow limit:          %.3f/cycle (critical path %d cycles)\n\n",
			lim.Actual, lim.CriticalPath)
	}
}

// must exits on a machine construction or run error.
func must[T any](v T, err error) T {
	if err != nil {
		log.Fatal(err)
	}
	return v
}
