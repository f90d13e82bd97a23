package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// withVector runs f with the GEMM leaves routed to the AVX twins
// (vector) or to the generic Go loops, then restores the start-up
// choice.
func withVector(vector bool, f func()) {
	saved := useVector
	useVector = vector
	defer func() { useVector = saved }()
	f()
}

func requireAVX(t *testing.T) {
	t.Helper()
	if !haveAVX {
		t.Skip("host has no OS-enabled AVX: only the generic twins exist")
	}
}

// TestKernelDispatch pins the start-up choice: the AVX twins whenever
// the CPU check passes, except under the race detector, which cannot
// see stores made from assembly.
func TestKernelDispatch(t *testing.T) {
	want := "generic"
	if haveAVX && !raceEnabled {
		want = "avx"
	}
	if got := Kernel(); got != want {
		t.Fatalf("Kernel() = %q, want %q (haveAVX=%v race=%v)", got, want, haveAVX, raceEnabled)
	}
}

// TestAxpyVectorMatchesGeneric compares the two leaf twins directly on
// every tail length the 8-, 4- and 1-wide loops of the assembly can
// leave, with NaN, ±Inf, ±0 and denormal operands, and checks that
// the vector twins never store past len(x).
func TestAxpyVectorMatchesGeneric(t *testing.T) {
	requireAVX(t)
	const guard = 3
	rng := rand.New(rand.NewSource(5))
	scalars := fuzzMatrix(rng, 1, 64, 0.2).Data
	scalars = append(scalars, 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, 1)
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 17, 31, 128, 131}
	for _, n := range lengths {
		x0 := fuzzMatrix(rng, 1, n, 0.2).Data
		x1 := fuzzMatrix(rng, 1, n, 0.2).Data
		dst := fuzzMatrix(rng, 1, n+guard, 0.2).Data
		for i, a0 := range scalars {
			a1 := scalars[(i*7+3)%len(scalars)]
			run := func(vector, pair bool) *Matrix {
				out := &Matrix{Rows: 1, Cols: len(dst), Data: append([]float64(nil), dst...)}
				withVector(vector, func() {
					if pair {
						axpyPair(out.Data, x0, x1, a0, a1)
					} else {
						axpy1(out.Data, x0, a0)
					}
				})
				return out
			}
			for _, pair := range []bool{false, true} {
				label := fmt.Sprintf("n=%d a0=%v a1=%v pair=%v", n, a0, a1, pair)
				got := run(true, pair)
				requireBitEqual(t, got, run(false, pair), label)
				for j := n; j < len(dst); j++ {
					if math.Float64bits(got.Data[j]) != math.Float64bits(dst[j]) {
						t.Fatalf("%s: stored past len(x) at %d", label, j)
					}
				}
			}
		}
	}
}

// TestGEMMVectorMatchesGeneric runs the three dense entry points with
// both leaf twins, on the tile-crossing shapes and on the hot training
// shapes, and requires bit-equal results.
func TestGEMMVectorMatchesGeneric(t *testing.T) {
	requireAVX(t)
	shapes := append([]struct{ m, k, n int }{
		{300, 256, 256}, {300, 1433, 256}, {16, 256, 256},
	}, variantShapes...)
	for _, sh := range shapes {
		for _, zf := range []float64{0, 0.5} {
			rng := rand.New(rand.NewSource(int64(7*sh.m + 5*sh.k + sh.n)))
			a := fuzzMatrix(rng, sh.m, sh.k, zf)
			at := fuzzMatrix(rng, sh.k, sh.m, zf)
			b := fuzzMatrix(rng, sh.k, sh.n, zf)
			bt := fuzzMatrix(rng, sh.n, sh.k, zf)
			for _, op := range []struct {
				name string
				run  func(dst *Matrix)
			}{
				{"NN", func(dst *Matrix) { MatMulInto(dst, a, b) }},
				{"TN", func(dst *Matrix) { MatMulTNInto(dst, at, b) }},
				{"NT", func(dst *Matrix) { MatMulNTInto(dst, a, bt) }},
			} {
				want, got := New(sh.m, sh.n), New(sh.m, sh.n)
				withVector(false, func() { op.run(want) })
				withVector(true, func() { op.run(got) })
				requireBitEqual(t, got, want, fmt.Sprintf("%s %dx%dx%d zf=%.1f", op.name, sh.m, sh.k, sh.n, zf))
			}
		}
	}
}
