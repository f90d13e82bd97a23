package tensor

import (
	"fmt"
	"math"
)

// The training step's per-element loops are leaves too: the Adam
// update and the two ReLU passes. Like the GEMM leaves (axpy.go) each
// has a generic Go twin and an AVX twin (step_amd64.s) that runs the
// same IEEE-rounded operations in the same order, 4 elements at a
// time, with no FMA and no reciprocal, so the twins are bit-identical
// by construction; TestAdamVectorMatchesGeneric and
// TestReLUVectorMatchesGeneric pin it.

// AdamCoef holds the scalars of one Adam step. The complements are
// passed rather than derived because callers differ in how they round
// them: 1−β₁ computed at run time from β₁ = 0.9 is 0.09999999999999998,
// while a Go constant expression folds it exactly to 0.1.
type AdamCoef struct {
	Beta1, OneMinusBeta1 float64
	Beta2, OneMinusBeta2 float64
	// C1 and C2 are the bias corrections 1−β₁ᵗ and 1−β₂ᵗ.
	C1, C2  float64
	LR, Eps float64
}

// AdamStep applies one Adam update to the parameters w in place, from
// the gradient g and the moments m and v (updated in place too). Per
// element, each operation rounded on its own:
//
//	m = β₁·m + (1−β₁)·g
//	v = β₂·v + ((1−β₂)·g)·g
//	w = w − (lr·(m/c1)) / (sqrt(v/c2) + ε)
//
// The four slices must have the same length.
func AdamStep(w, g, m, v []float64, k AdamCoef) {
	if len(g) != len(w) || len(m) != len(w) || len(v) != len(w) {
		panic(fmt.Sprintf("tensor: AdamStep lengths w=%d g=%d m=%d v=%d", len(w), len(g), len(m), len(v)))
	}
	if useVector {
		adamStepAVX(w, g, m, v, k)
		return
	}
	adamStepGeneric(w, g, m, v, k)
}

// ReLUInPlace applies max(x, 0) element-wise in place. The predicate
// mirrors ReLU exactly (anything not greater than zero, NaN and −0
// included, becomes +0) so the two paths stay bit-identical.
func (m *Matrix) ReLUInPlace() {
	if useVector {
		reluAVX(m.Data)
		return
	}
	reluGeneric(m.Data)
}

// ReLUMaskInPlace computes m *= act.ReLUMask() in place, bit for bit:
// entries where act is not greater than zero (NaN included) are
// multiplied by zero, which keeps their sign on the zero and turns
// ±Inf and NaN into NaN; the rest are left as they are.
func (m *Matrix) ReLUMaskInPlace(act *Matrix) {
	m.sameShape(act, "ReLUMaskInPlace")
	d := m.Data[:len(act.Data)]
	if useVector {
		reluMaskAVX(d, act.Data)
		return
	}
	reluMaskGeneric(d, act.Data)
}

// float64(·) keeps each product separately rounded, as in axpy.go.

func adamStepGeneric(w, g, m, v []float64, k AdamCoef) {
	g, m, v = g[:len(w)], m[:len(w)], v[:len(w)]
	for j, gj := range g {
		mj := float64(k.Beta1*m[j]) + float64(k.OneMinusBeta1*gj)
		vj := float64(k.Beta2*v[j]) + float64(k.OneMinusBeta2*gj*gj)
		m[j], v[j] = mj, vj
		w[j] -= k.LR * (mj / k.C1) / (math.Sqrt(vj/k.C2) + k.Eps)
	}
}

func reluGeneric(x []float64) {
	for j, v := range x {
		if !(v > 0) {
			x[j] = 0
		}
	}
}

func reluMaskGeneric(d, a []float64) {
	d = d[:len(a)]
	for j, av := range a {
		if !(av > 0) {
			d[j] *= 0
		}
	}
}
