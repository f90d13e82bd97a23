//go:build !amd64

package tensor

const haveAVX = false

// Without AVX twins the vector entry points are the generic loops.

func axpy1AVX(dst, x []float64, a float64) { axpy1Generic(dst, x, a) }

func axpyPairAVX(dst, x0, x1 []float64, a0, a1 float64) {
	axpyPairGeneric(dst, x0, x1, a0, a1)
}

func adamStepAVX(w, g, m, v []float64, k AdamCoef) { adamStepGeneric(w, g, m, v, k) }

func reluAVX(x []float64) { reluGeneric(x) }

func reluMaskAVX(d, a []float64) { reluMaskGeneric(d, a) }
