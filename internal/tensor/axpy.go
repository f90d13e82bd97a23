package tensor

// The dense GEMM kernels spend nearly all their time in two j-loops,
// the leaves below. Each has a generic Go twin and, on amd64 hosts
// whose OS has AVX enabled, a 4-wide assembly twin (axpy_amd64.s).
// Both do, per element, one IEEE-rounded multiply and then one
// IEEE-rounded add in the same order, so they are bit-identical by
// construction; TestAxpyVectorMatchesGeneric pins it.

// useVector routes the leaves to the AVX twins. It is fixed at start-up
// from the CPU check; only tests flip it, to run both twins in one
// binary. Race builds keep the generic twins: the race detector cannot
// see stores made from assembly.
var useVector = haveAVX && !raceEnabled

// Kernel names the leaf implementation this process runs, "avx" or
// "generic", for run provenance.
func Kernel() string {
	if useVector {
		return "avx"
	}
	return "generic"
}

// axpy1 computes dst[j] += a·x[j] for j < len(x).
func axpy1(dst, x []float64, a float64) {
	dst = dst[:len(x)]
	if useVector {
		axpy1AVX(dst, x, a)
		return
	}
	axpy1Generic(dst, x, a)
}

// axpyPair computes dst[j] = (dst[j] + a0·x0[j]) + a1·x1[j] for
// j < len(x0): two consecutive k-steps of a GEMM row, each rounded
// separately, with dst loaded and stored once.
func axpyPair(dst, x0, x1 []float64, a0, a1 float64) {
	dst = dst[:len(x0)]
	x1 = x1[:len(x0)]
	if useVector {
		axpyPairAVX(dst, x0, x1, a0, a1)
		return
	}
	axpyPairGeneric(dst, x0, x1, a0, a1)
}

// The explicit float64 conversions forbid the compiler from fusing a
// product and a sum into one FMA (Go spec, "Arithmetic operators");
// a fused multiply-add rounds once and would change bits on hosts
// that have one.

func axpy1Generic(dst, x []float64, a float64) {
	dst = dst[:len(x)]
	for j, xv := range x {
		dst[j] += float64(a * xv)
	}
}

func axpyPairGeneric(dst, x0, x1 []float64, a0, a1 float64) {
	dst = dst[:len(x0)]
	x1 = x1[:len(x0)]
	for j, xv := range x0 {
		v := dst[j] + float64(a0*xv)
		dst[j] = v + float64(a1*x1[j])
	}
}
