package loops

import (
	"fmt"
	"strconv"
	"strings"

	"mfup/internal/asm"
	"mfup/internal/emu"
)

// Vector codings. The paper runs the vectorizable loops as scalar
// code on purpose — its subject is the scalar unit — but classifies
// them as vectorizable because a CRAY would run them in the vector
// unit. Hand-vectorized codings of all nine vectorizable kernels
// (LFK 1, 3, 7 and 12 here; 2, 4, 9 and 10 in vector2.go; 8 in
// vector3.go) let the vector-extension machine (core.NewVector) be
// compared against the paper's multiple-issue scalar machines on the
// same computations. VectorKernels lists them; VectorCodings maps a
// loop selection onto them.
//
// Each coding strip-mines the loop into 64-element sections (the
// CRAY-1 vector register length): full strips run at VL=64 and a
// final partial strip at VL=n mod 64. Elementwise kernels (1, 7, 12)
// compute bit-identical results to their scalar references; the
// inner-product kernel 3 accumulates 64 partial sums and reduces them
// serially at the end, so it carries its own reference with that
// association.

// vectorRegistry holds the vectorized kernel variants, keyed by
// kernel number.
var vectorRegistry = map[int]*Kernel{}

func registerVector(k *Kernel, source string) {
	if _, dup := vectorRegistry[k.Number]; dup {
		recordInitErr(fmt.Errorf("loops: duplicate vector kernel %d", k.Number))
		return
	}
	prog, err := asm.Assemble(fmt.Sprintf("lfk%02dv", k.Number), source)
	if err != nil {
		recordInitErr(fmt.Errorf("loops: vector kernel %d: %w", k.Number, err))
		return
	}
	k.prog = prog
	vectorRegistry[k.Number] = k
}

// VectorKernel returns the vectorized coding of kernel n, or an error
// if none exists (only a representative subset is vectorized).
func VectorKernel(n int) (*Kernel, error) {
	k, ok := vectorRegistry[n]
	if !ok {
		if err := InitErr(); err != nil {
			return nil, fmt.Errorf("loops: no vector coding for kernel %d (registration failures: %w)", n, err)
		}
		return nil, fmt.Errorf("loops: no vector coding for kernel %d (the scalar loops 5, 6, 11, 13, 14 have none)", n)
	}
	return k, nil
}

// VectorKernels returns all vectorized kernels in number order.
func VectorKernels() []*Kernel {
	var ks []*Kernel
	for _, n := range []int{1, 2, 3, 4, 7, 8, 9, 10, 12} {
		if k, ok := vectorRegistry[n]; ok {
			ks = append(ks, k)
		}
	}
	return ks
}

// VectorCodings maps a loop selection onto the vector machine's
// codings, in selection order; kernels without a coding drop out. It
// is an error, naming the kernels that have one, when none remain.
func VectorCodings(ks []*Kernel) ([]*Kernel, error) {
	var vks []*Kernel
	for _, k := range ks {
		if vk, ok := vectorRegistry[k.Number]; ok {
			vks = append(vks, vk)
		}
	}
	if len(vks) == 0 {
		var have []string
		for _, k := range VectorKernels() {
			have = append(have, strconv.Itoa(k.Number))
		}
		return nil, fmt.Errorf("no vector codings among the selected loops (have %s)", strings.Join(have, ", "))
	}
	return vks, nil
}

// stripLoop wraps a vector body in the standard strip-mining control
// structure. Pointer registers named in bumps advance by 64 per full
// strip; A4 counts remaining elements, A7 holds 64.
func stripLoop(body string, bumps ...string) string {
	s := `
loop:
    A0 = A4 + 0
    JAZ done
    A0 = A4 - 64
    JAM rest
    VL = A7
` + body
	for _, r := range bumps {
		s += fmt.Sprintf("    %s = %s + A7\n", r, r)
	}
	s += `    A4 = A4 - A7
    J loop
rest:
    VL = A4
` + body + `done:
`
	return s
}

// LFK 1, vector coding: x[k] = q + y[k]*(r*z[k+10] + t*z[k+11]).
func init() {
	const (
		n      = 100
		constB = 0x0100
		xB     = 0x1000
		yB     = 0x2000
		zB     = 0x3000
	)
	g := newLCG(1) // identical data to the scalar kernel 1
	q, r, t := g.float(), g.float(), g.float()
	y := make([]float64, n)
	z := make([]float64, n+11)
	for i := range y {
		y[i] = g.float()
	}
	for i := range z {
		z[i] = g.float()
	}

	body := `    A5 = A3 + 10
    V1 = [A5 : 1]
    A5 = A3 + 11
    V2 = [A5 : 1]
    V1 = S2 *F V1
    V2 = S3 *F V2
    V1 = V1 +F V2
    V3 = [A2 : 1]
    V1 = V3 *F V1
    V1 = S1 +F V1
    [A1 : 1] = V1
`
	src := fmt.Sprintf(`
; LFK 1, vectorized
    A6 = %d
    S1 = [A6 + 0]   ; q
    S2 = [A6 + 1]   ; r
    S3 = [A6 + 2]   ; t
    A1 = %d
    A2 = %d
    A3 = %d
    A4 = %d
    A7 = 64
%s`, constB, xB, yB, zB, n, stripLoop(body, "A1", "A2", "A3"))

	registerVector(&Kernel{
		Number: 1,
		Name:   "hydro fragment (vector)",
		Class:  Vectorizable,
		N:      n,
		init: func(m *emu.Machine) {
			m.SetFloat(constB+0, q)
			m.SetFloat(constB+1, r)
			m.SetFloat(constB+2, t)
			for i, v := range y {
				m.SetFloat(yB+int64(i), v)
			}
			for i, v := range z {
				m.SetFloat(zB+int64(i), v)
			}
		},
		check: func(m *emu.Machine) error {
			want := make([]float64, n)
			for k := 0; k < n; k++ {
				want[k] = q + y[k]*(r*z[k+10]+t*z[k+11])
			}
			return checkFloats(m, "x", xB, want)
		},
	}, src)
}

// LFK 3, vector coding: 64 partial sums, serial reduction.
func init() {
	const (
		n     = 100
		qB    = 0x0100
		zB    = 0x1000
		xB    = 0x2000
		zeroB = 0x3000 // 64 words of +0.0 (memory is zeroed)
	)
	g := newLCG(3)
	z := make([]float64, n)
	x := make([]float64, n)
	for i := range z {
		z[i] = g.float()
		x[i] = g.float()
	}

	body := `    V2 = [A1 : 1]
    V3 = [A2 : 1]
    V2 = V2 *F V3
    V1 = V1 +F V2
`
	src := fmt.Sprintf(`
; LFK 3, vectorized with partial sums
    A1 = %d         ; &z
    A2 = %d         ; &x
    A4 = %d
    A7 = 64
    A5 = %d         ; zero block
    VL = A7
    V1 = [A5 : 1]   ; partial sums = 0
%s
    ; "done" falls through to the serial reduction of V1.
    S1 = 0
    A3 = 0
    A6 = 1
    A0 = 64
rloop:
    A0 = A0 - A6
    S2 = V1 [ A3 ]
    S1 = S1 +F S2
    A3 = A3 + A6
    JAN rloop
    A5 = %d
    [A5] = S1
`, zB, xB, n, zeroB, stripLoop(body, "A1", "A2"), qB)

	registerVector(&Kernel{
		Number: 3,
		Name:   "inner product (vector)",
		Class:  Vectorizable,
		N:      n,
		init: func(m *emu.Machine) {
			for i := 0; i < n; i++ {
				m.SetFloat(zB+int64(i), z[i])
				m.SetFloat(xB+int64(i), x[i])
			}
		},
		check: func(m *emu.Machine) error {
			// Partial-sum association: lane i accumulates elements
			// i, i+64, ...; the reduction then sums lanes in order.
			var part [64]float64
			for k := 0; k < n; k++ {
				part[k%64] += z[k] * x[k]
			}
			q := 0.0
			for i := 0; i < 64; i++ {
				q += part[i]
			}
			return checkFloat(m.Float(qB), "q", q)
		},
	}, src)
}

// LFK 7, vector coding: elementwise equation of state.
func init() {
	const (
		n      = 100
		constB = 0x0100
		xB     = 0x1000
		yB     = 0x2000
		zB     = 0x3000
		uB     = 0x4000
	)
	g := newLCG(7)
	r, t := g.float(), g.float()
	y := make([]float64, n)
	z := make([]float64, n)
	u := make([]float64, n+6)
	for i := range u {
		u[i] = g.float()
	}
	for i := range y {
		y[i] = g.float()
		z[i] = g.float()
	}

	// Registers: A1=x, A2=y, A3=z; A4 is the strip counter, so the u
	// pointer lives in A6 (reloaded after the constant block is read).
	bodyU := `    V1 = [A2 : 1]
    V1 = S1 *F V1
    V2 = [A3 : 1]
    V1 = V2 +F V1
    V1 = S1 *F V1
    V2 = [A6 : 1]
    V1 = V2 +F V1
    A5 = A6 + 1
    V2 = [A5 : 1]
    V2 = S1 *F V2
    A5 = A6 + 2
    V3 = [A5 : 1]
    V2 = V3 +F V2
    V2 = S1 *F V2
    A5 = A6 + 3
    V3 = [A5 : 1]
    V2 = V3 +F V2
    A5 = A6 + 4
    V3 = [A5 : 1]
    V3 = S1 *F V3
    A5 = A6 + 5
    V4 = [A5 : 1]
    V3 = V4 +F V3
    V3 = S1 *F V3
    A5 = A6 + 6
    V4 = [A5 : 1]
    V3 = V4 +F V3
    V3 = S2 *F V3
    V2 = V2 +F V3
    V2 = S2 *F V2
    V1 = V1 +F V2
    [A1 : 1] = V1
`
	srcU := fmt.Sprintf(`
; LFK 7, vectorized
    A6 = %d
    S1 = [A6 + 0]   ; r
    S2 = [A6 + 1]   ; t
    A1 = %d
    A2 = %d
    A3 = %d
    A6 = %d         ; &u
    A4 = %d
    A7 = 64
%s`, constB, xB, yB, zB, uB, n, stripLoop(bodyU, "A1", "A2", "A3", "A6"))

	registerVector(&Kernel{
		Number: 7,
		Name:   "equation of state (vector)",
		Class:  Vectorizable,
		N:      n,
		init: func(m *emu.Machine) {
			m.SetFloat(constB+0, r)
			m.SetFloat(constB+1, t)
			for i, f := range u {
				m.SetFloat(uB+int64(i), f)
			}
			for i := 0; i < n; i++ {
				m.SetFloat(yB+int64(i), y[i])
				m.SetFloat(zB+int64(i), z[i])
			}
		},
		check: func(m *emu.Machine) error {
			want := make([]float64, n)
			for k := 0; k < n; k++ {
				term1 := u[k] + r*(z[k]+r*y[k])
				inner1 := u[k+3] + r*(u[k+2]+r*u[k+1])
				inner2 := u[k+6] + r*(u[k+5]+r*u[k+4])
				want[k] = term1 + t*(inner1+t*inner2)
			}
			return checkFloats(m, "x", xB, want)
		},
	}, srcU)
}

// LFK 12, vector coding: first difference.
func init() {
	const (
		n  = 100
		xB = 0x1000
		yB = 0x2000
	)
	g := newLCG(12)
	y := make([]float64, n+1)
	for i := range y {
		y[i] = g.float()
	}

	body := `    A5 = A2 + 1
    V1 = [A5 : 1]
    V2 = [A2 : 1]
    V1 = V1 -F V2
    [A1 : 1] = V1
`
	src := fmt.Sprintf(`
; LFK 12, vectorized
    A1 = %d
    A2 = %d
    A4 = %d
    A7 = 64
%s`, xB, yB, n, stripLoop(body, "A1", "A2"))

	registerVector(&Kernel{
		Number: 12,
		Name:   "first difference (vector)",
		Class:  Vectorizable,
		N:      n,
		init: func(m *emu.Machine) {
			for i, f := range y {
				m.SetFloat(yB+int64(i), f)
			}
		},
		check: func(m *emu.Machine) error {
			x := make([]float64, n)
			for k := 0; k < n; k++ {
				x[k] = y[k+1] - y[k]
			}
			return checkFloats(m, "x", xB, x)
		},
	}, src)
}
