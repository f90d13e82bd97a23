package tensor

var haveAVX = cpuHasAVX()

// cpuHasAVX reports whether the CPU has AVX and the OS saves YMM state
// (CPUID.1:ECX.OSXSAVE and .AVX, then XCR0 bits 1–2).
func cpuHasAVX() bool

//go:noescape
func axpy1AVX(dst, x []float64, a float64)

//go:noescape
func axpyPairAVX(dst, x0, x1 []float64, a0, a1 float64)
