package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gopim/internal/parallel"
)

// fuzzMatrix builds a rows×cols matrix with ~zeroFrac zero entries and
// a sprinkling of the awkward values the zero-skip contract cares
// about: ±0, NaN, ±Inf and denormals.
func fuzzMatrix(rng *rand.Rand, rows, cols int, zeroFrac float64) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		switch r := rng.Float64(); {
		case r < zeroFrac/2:
			m.Data[i] = 0
		case r < zeroFrac:
			m.Data[i] = math.Copysign(0, -1)
		case r < zeroFrac+0.02:
			m.Data[i] = math.NaN()
		case r < zeroFrac+0.04:
			m.Data[i] = math.Inf(1 - 2*rng.Intn(2))
		case r < zeroFrac+0.06:
			m.Data[i] = 5e-324 * float64(1+rng.Intn(9))
		default:
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

// bitEqual reports got == want bit for bit — zero signs included —
// except that any NaN matches any NaN: NaN payload propagation through
// x86 add/mul depends on operand commutation the compiler is free to
// pick per expression, so payloads are not part of the determinism
// contract (no real workload feeds NaN into a product).
func bitEqual(got, want float64) bool {
	if math.IsNaN(want) {
		return math.IsNaN(got)
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// requireBitEqual fails unless got and want match per bitEqual.
func requireBitEqual(t *testing.T, got, want *Matrix, label string) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if !bitEqual(got.Data[i], want.Data[i]) {
			t.Fatalf("%s: element %d = %v (bits %x), want %v (bits %x)",
				label, i, got.Data[i], math.Float64bits(got.Data[i]),
				want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

// variantShapes crosses the tile boundaries (32/128) in every
// dimension and includes the degenerate single-row/column cases the
// fast paths special-case.
var variantShapes = []struct{ m, k, n int }{
	{1, 1, 1}, {3, 5, 7}, {16, 9, 256}, {16, 256, 1}, {256, 16, 1},
	{16, 1, 256}, {130, 257, 33}, {33, 130, 257}, {64, 300, 16},
}

// TestMatMulTNBitIdentical pins MatMulTNInto to the reference
// transpose-then-multiply bit for bit, at several worker counts and
// zero densities.
func TestMatMulTNBitIdentical(t *testing.T) {
	defer parallel.SetWorkers(parallel.Workers())
	for _, workers := range []int{1, 2, 8} {
		parallel.SetWorkers(workers)
		for _, sh := range variantShapes {
			for _, zf := range []float64{0, 0.3, 0.9} {
				rng := rand.New(rand.NewSource(int64(41*sh.m + sh.k + sh.n)))
				a := fuzzMatrix(rng, sh.k, sh.m, zf) // aᵀ is m×k
				b := fuzzMatrix(rng, sh.k, sh.n, zf)
				at := New(sh.m, sh.k)
				TransposeInto(at, a)
				want := New(sh.m, sh.n)
				MatMulInto(want, at, b)
				got := New(sh.m, sh.n)
				MatMulTNInto(got, a, b)
				requireBitEqual(t, got, want,
					fmt.Sprintf("TN %dx%dx%d zf=%.1f w=%d", sh.m, sh.k, sh.n, zf, workers))
			}
		}
	}
}

// TestMatMulNTBitIdentical pins MatMulNTInto the same way.
func TestMatMulNTBitIdentical(t *testing.T) {
	defer parallel.SetWorkers(parallel.Workers())
	for _, workers := range []int{1, 2, 8} {
		parallel.SetWorkers(workers)
		for _, sh := range variantShapes {
			for _, zf := range []float64{0, 0.3, 0.9} {
				rng := rand.New(rand.NewSource(int64(17*sh.m + 3*sh.k + sh.n)))
				a := fuzzMatrix(rng, sh.m, sh.k, zf)
				b := fuzzMatrix(rng, sh.n, sh.k, zf) // bᵀ is k×n
				bt := New(sh.k, sh.n)
				TransposeInto(bt, b)
				want := New(sh.m, sh.n)
				MatMulInto(want, a, bt)
				got := New(sh.m, sh.n)
				MatMulNTInto(got, a, b)
				requireBitEqual(t, got, want,
					fmt.Sprintf("NT %dx%dx%d zf=%.1f w=%d", sh.m, sh.k, sh.n, zf, workers))
			}
		}
	}
}

// TestMatMulColumnVectorPath exercises the cols==1 dot fast path
// against a reference product widened to two columns (whose first
// column must match the vector product bit for bit, since per-element
// accumulation is column-independent).
func TestMatMulColumnVectorPath(t *testing.T) {
	for _, sh := range []struct{ m, k int }{{1, 1}, {7, 3}, {16, 256}, {300, 130}} {
		for _, zf := range []float64{0, 0.5, 0.95} {
			rng := rand.New(rand.NewSource(int64(sh.m*1000 + sh.k)))
			a := fuzzMatrix(rng, sh.m, sh.k, zf)
			b2 := fuzzMatrix(rng, sh.k, 2, zf)
			want2 := New(sh.m, 2)
			MatMulInto(want2, a, b2)
			b1 := New(sh.k, 1)
			for r := 0; r < sh.k; r++ {
				b1.Data[r] = b2.At(r, 0)
			}
			got := New(sh.m, 1)
			MatMulInto(got, a, b1)
			for i := 0; i < sh.m; i++ {
				if !bitEqual(got.Data[i], want2.At(i, 0)) {
					t.Fatalf("colvec %dx%d zf=%.2f row %d: %v != %v",
						sh.m, sh.k, zf, i, got.Data[i], want2.At(i, 0))
				}
			}
		}
	}
}

// TestMatMulVariantPanics pins the shape/alias guards of the fused
// kernels.
func TestMatMulVariantPanics(t *testing.T) {
	a, b := New(4, 3), New(4, 5)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("TN inner", func() { MatMulTNInto(New(3, 5), New(2, 3), b) })
	mustPanic("TN dst", func() { MatMulTNInto(New(5, 3), a, b) })
	mustPanic("TN alias", func() {
		d := New(3, 5)
		d.Data = a.Data[:0:0]
		d.Data = a.Data[:15]
		MatMulTNInto(d, a, b)
	})
	mustPanic("NT inner", func() { MatMulNTInto(New(4, 2), a, New(2, 4)) })
	mustPanic("NT dst", func() { MatMulNTInto(New(2, 4), a, New(2, 3)) })
}

// benchMatrix builds a rows×cols matrix of standard-normal values with
// ~zeroFrac exact zeros, like the ReLU activations and gradients that
// training feeds the kernels. fuzzMatrix's denormals cost a microcode
// assist per product on x86, so benchmarks on its inputs time those
// assists as much as the kernel.
func benchMatrix(rng *rand.Rand, rows, cols int, zeroFrac float64) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		if rng.Float64() >= zeroFrac {
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

// Dense kernel benchmarks on the shapes the MLP predictor and GCN
// training actually issue. TN and NT shapes also time the historic
// transpose-then-multiply, so the fused entry points are measured
// against the composition they are pinned to. Every shape runs on
// fuzzMatrix inputs (<shape>/<kernel>, the original series) and on
// benchMatrix inputs (<shape>/normal/<kernel>).
func BenchmarkBackwardKernels(b *testing.B) {
	shapes := []struct {
		name    string
		op      string // "NN": a·b, "TN": aᵀ·b, "NT": a·bᵀ
		m, k, n int    // dst is m×n with inner dimension k
	}{
		{"mlp-dW1", "TN", 9, 16, 256},       // Xᵀ(9×16)·Δ(16×256)
		{"mlp-dW2", "TN", 256, 16, 1},       // Hᵀ(256×16)·Δ(16×1)
		{"mlp-dW4", "TN", 256, 16, 256},     // Hᵀ(256×16)·Δ(16×256)
		{"gcn-dW", "TN", 16, 1200, 16},      // Hᵀ(16×1200)·dC(1200×16)
		{"gcn-dW256", "TN", 256, 300, 256},  // Hᵀ(256×300)·dC(300×256)
		{"mlp-dH", "NT", 16, 1, 256},        // Δ(16×1)·Wᵀ(1×256)
		{"mlp-dH4", "NT", 16, 256, 256},     // Δ(16×256)·Wᵀ(256×256)
		{"gcn-dIn", "NT", 1200, 16, 16},     // dC(1200×16)·Wᵀ(16×16)
		{"gcn-dIn256", "NT", 300, 256, 256}, // dC(300×256)·Wᵀ(256×256)
		{"mlp-fwd2", "NN", 16, 256, 1},      // H(16×256)·W2(256×1)
		{"mlp-fwd4", "NN", 16, 256, 256},    // H(16×256)·W(256×256)
		{"gcn-fwd", "NN", 300, 256, 256},    // H(300×256)·W(256×256)
	}
	inputs := []struct {
		suffix string
		gen    func(rng *rand.Rand, rows, cols int, zeroFrac float64) *Matrix
	}{{"", fuzzMatrix}, {"/normal", benchMatrix}}
	for _, in := range inputs {
		for _, sh := range shapes {
			benchShape(b, sh.name+in.suffix, sh.op, sh.m, sh.k, sh.n, in.gen)
		}
	}
}

// benchShape runs BenchmarkBackwardKernels' sub-benchmarks for one
// m×k×n shape of op on inputs drawn by gen.
func benchShape(b *testing.B, name, op string, m, k, n int, gen func(*rand.Rand, int, int, float64) *Matrix) {
	rng := rand.New(rand.NewSource(1))
	dst := New(m, n)
	switch op {
	case "NN":
		a := gen(rng, m, k, 0.3)
		bm := gen(rng, k, n, 0)
		b.Run(name+"/plain", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MatMulInto(dst, a, bm)
			}
		})
	case "NT":
		a := gen(rng, m, k, 0.3)
		bm := gen(rng, n, k, 0)
		bt := New(k, n)
		b.Run(name+"/transpose", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				TransposeInto(bt, bm)
				MatMulInto(dst, a, bt)
			}
		})
		b.Run(name+"/fusedNT", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MatMulNTInto(dst, a, bm)
			}
		})
	case "TN":
		a := gen(rng, k, m, 0.3)
		bm := gen(rng, k, n, 0.3)
		at := New(m, k)
		b.Run(name+"/transpose", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				TransposeInto(at, a)
				MatMulInto(dst, at, bm)
			}
		})
		b.Run(name+"/fusedTN", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MatMulTNInto(dst, a, bm)
			}
		})
	}
}
