package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// stepLengths covers every tail the 8-, 4- and 1-wide loops of the
// assembly can leave, plus the parameter count of Fig. 9's depth-4
// predictor net (10-256-256-1).
var stepLengths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 68609}

// stepSpecials are the operands the leaves must treat exactly as the
// generic loops do: signed zeros, infinities, denormals and NaNs with
// different signs and payloads (x86 returns the first source's NaN when
// two meet, so payloads expose operand-order slips).
var stepSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.NaN(), math.Float64frombits(0xfff8000000000123), math.Float64frombits(0x7ff80000000abcde),
	5e-324, -5e-324, 2e-310, -1e-309, 1, -1,
}

// stepFuzz returns n operands, a quarter of them drawn from
// stepSpecials and the rest normal.
func stepFuzz(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		if rng.Intn(4) == 0 {
			x[i] = stepSpecials[rng.Intn(len(stepSpecials))]
		} else {
			x[i] = rng.NormFloat64()
		}
	}
	return x
}

const stepGuard = 5

// guarded copies x into a buffer with stepGuard extra elements after
// it and returns the buffer; the leaves get buf[:len(x)]. The guards
// are negative so that even a ReLU stored past the end changes them.
func guarded(x []float64) []float64 {
	buf := make([]float64, len(x)+stepGuard)
	copy(buf, x)
	for i := len(x); i < len(buf); i++ {
		buf[i] = -float64(1000 + i)
	}
	return buf
}

func requireBits(t *testing.T, got, want []float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v (bits %x), want %v (bits %x)",
				label, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// adamRun is one AdamStep's outputs: the full guarded buffers of w, m
// and v.
type adamRun struct{ w, m, v []float64 }

func runAdam(vector bool, w, g, m, v []float64, k AdamCoef) adamRun {
	n := len(w)
	r := adamRun{guarded(w), guarded(m), guarded(v)}
	gg := guarded(g)
	withVector(vector, func() { AdamStep(r.w[:n], gg[:n], r.m[:n], r.v[:n], k) })
	return r
}

func requireAdamRun(t *testing.T, got, want adamRun, label string) {
	t.Helper()
	requireBits(t, got.w, want.w, label+" w")
	requireBits(t, got.m, want.m, label+" m")
	requireBits(t, got.v, want.v, label+" v")
}

// mlpCoef and gcnCoef are the two callers' coefficients at step t: mlp
// computes 1−β at run time from fields, gcn folds constants.
func mlpCoef(lr float64, t int) AdamCoef {
	b1, b2, eps := 0.9, 0.999, 1e-8
	return AdamCoef{b1, 1 - b1, b2, 1 - b2,
		1 - math.Pow(b1, float64(t)), 1 - math.Pow(b2, float64(t)), lr, eps}
}

func gcnCoef(lr float64, t int) AdamCoef {
	const b1, b2, eps = 0.9, 0.999, 1e-8
	return AdamCoef{b1, 1 - b1, b2, 1 - b2,
		1 - math.Pow(b1, float64(t)), 1 - math.Pow(b2, float64(t)), lr, eps}
}

// TestAdamVectorMatchesGeneric runs AdamStep's two twins on every tail
// length with special values in every slice operand and, one at a
// time, in every coefficient, and requires bit-equal w, m and v (NaN
// payloads included) and untouched memory past the end.
func TestAdamVectorMatchesGeneric(t *testing.T) {
	requireAVX(t)
	if mlpCoef(1, 1).OneMinusBeta1 == gcnCoef(1, 1).OneMinusBeta1 {
		t.Fatal("mlp's and gcn's 1−β₁ should round differently")
	}
	coefs := []AdamCoef{mlpCoef(1e-3, 1), gcnCoef(0.01, 7)}
	for i := 0; i < 8; i++ {
		for _, s := range stepSpecials {
			k := mlpCoef(1e-3, 3)
			reflect.ValueOf(&k).Elem().Field(i).SetFloat(s)
			coefs = append(coefs, k)
		}
	}
	rng := rand.New(rand.NewSource(11))
	for _, n := range stepLengths {
		// Short lengths live mostly in the scalar tail; draw them many
		// times so two NaNs meet there too.
		draws := 40
		if n > 9 {
			draws = 1
		}
		for d := 0; d < draws; d++ {
			w, g, m, v := stepFuzz(rng, n), stepFuzz(rng, n), stepFuzz(rng, n), stepFuzz(rng, n)
			for ci, k := range coefs {
				if n > 9 && ci%7 != 0 {
					continue // the long case needs only a sample of the coefficient sets
				}
				label := fmt.Sprintf("n=%d draw=%d coef=%d %+v", n, d, ci, k)
				requireAdamRun(t, runAdam(true, w, g, m, v, k), runAdam(false, w, g, m, v, k), label)
			}
		}
	}
}

// oldMLPAdamLoop is mlp.(*Adam).step's per-matrix loop before it
// became an AdamStep call.
func oldMLPAdamLoop(wd, gd, md, vd []float64, lr, beta1, beta2, eps float64, t int) {
	c1 := 1 - math.Pow(beta1, float64(t))
	c2 := 1 - math.Pow(beta2, float64(t))
	for j := range wd {
		md[j] = float64(beta1*md[j]) + float64((1-beta1)*gd[j])
		vd[j] = float64(beta2*vd[j]) + float64((1-beta2)*gd[j]*gd[j])
		wd[j] -= lr * (md[j] / c1) / (math.Sqrt(vd[j]/c2) + eps)
	}
}

// oldGCNAdamLoop is gcn.(*adamState).step's per-matrix loop before it
// became an AdamStep call.
func oldGCNAdamLoop(w, g, m, v []float64, lr float64, t int) {
	const b1, b2, eps = 0.9, 0.999, 1e-8
	c1 := 1 - math.Pow(b1, float64(t))
	c2 := 1 - math.Pow(b2, float64(t))
	for j := range w {
		m[j] = float64(b1*m[j]) + float64((1-b1)*g[j])
		v[j] = float64(b2*v[j]) + float64((1-b2)*g[j]*g[j])
		w[j] -= lr * (m[j] / c1) / (math.Sqrt(v[j]/c2) + eps)
	}
}

// TestAdamMatchesOldLoops drives both twins through several steps with
// mlp's and gcn's coefficients and requires the bytes the loops they
// replace produced.
func TestAdamMatchesOldLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range stepLengths {
		w0, m0, v0 := stepFuzz(rng, n), stepFuzz(rng, n), stepFuzz(rng, n)
		grads := [][]float64{stepFuzz(rng, n), stepFuzz(rng, n), stepFuzz(rng, n)}
		for _, caller := range []string{"mlp", "gcn"} {
			const lr = 1e-3
			ow, om, ov := append([]float64(nil), w0...), append([]float64(nil), m0...), append([]float64(nil), v0...)
			for step, g := range grads {
				if caller == "mlp" {
					oldMLPAdamLoop(ow, g, om, ov, lr, 0.9, 0.999, 1e-8, step+1)
				} else {
					oldGCNAdamLoop(ow, g, om, ov, lr, step+1)
				}
			}
			for _, vector := range []bool{false, true} {
				if vector && !haveAVX {
					continue
				}
				w, m, v := append([]float64(nil), w0...), append([]float64(nil), m0...), append([]float64(nil), v0...)
				for step, g := range grads {
					k := mlpCoef(lr, step+1)
					if caller == "gcn" {
						k = gcnCoef(lr, step+1)
					}
					withVector(vector, func() { AdamStep(w, g, m, v, k) })
				}
				label := fmt.Sprintf("%s n=%d vector=%v", caller, n, vector)
				requireBits(t, w, ow, label+" w")
				requireBits(t, m, om, label+" m")
				requireBits(t, v, ov, label+" v")
			}
		}
	}
}

func TestAdamStepLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched slice lengths")
		}
	}()
	AdamStep(make([]float64, 4), make([]float64, 4), make([]float64, 3), make([]float64, 4), mlpCoef(1e-3, 1))
}

// oldReLULoop and oldReLUMaskLoop are the loops ReLUInPlace and mlp's
// backward pass ran before the leaves.
func oldReLULoop(x []float64) {
	for i, v := range x {
		if !(v > 0) {
			x[i] = 0
		}
	}
}

func oldReLUMaskLoop(dd, act []float64) {
	for j, av := range act {
		if !(av > 0) {
			dd[j] *= 0
		}
	}
}

// TestReLUVectorMatchesGeneric checks ReLUInPlace and ReLUMaskInPlace,
// with both twins, against the loops they replace on every tail length
// and special operand, bit for bit and with nothing stored past the
// end.
func TestReLUVectorMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range append(stepLengths, 16*256) {
		x, d := stepFuzz(rng, n), stepFuzz(rng, n)
		wantReLU := guarded(x)
		oldReLULoop(wantReLU[:n])
		wantMask := guarded(d)
		oldReLUMaskLoop(wantMask[:n], x)
		for _, vector := range []bool{false, true} {
			if vector && !haveAVX {
				continue
			}
			label := fmt.Sprintf("n=%d vector=%v", n, vector)
			got := guarded(x)
			withVector(vector, func() { (&Matrix{Rows: 1, Cols: n, Data: got[:n]}).ReLUInPlace() })
			requireBits(t, got, wantReLU, label+" ReLUInPlace")
			got = guarded(d)
			withVector(vector, func() {
				(&Matrix{Rows: 1, Cols: n, Data: got[:n]}).ReLUMaskInPlace(&Matrix{Rows: 1, Cols: n, Data: x})
			})
			requireBits(t, got, wantMask, label+" ReLUMaskInPlace")
		}
	}
}

// TestReLUMaskInPlaceMatchesMulReLUMask pins the fused mask against
// the historic MulInPlace(ReLUMask) it stands for (any NaN matches any
// NaN there: ·1 and ·0 may pick either operand's payload).
func TestReLUMaskInPlaceMatchesMulReLUMask(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	act, d := fuzzMatrix(rng, 16, 256, 0.3), fuzzMatrix(rng, 16, 256, 0.2)
	want := d.Clone()
	want.MulInPlace(act.ReLUMask())
	d.ReLUMaskInPlace(act)
	requireBitEqual(t, d, want, "ReLUMaskInPlace")
}

// twins runs f once per leaf twin this host has, as sub-benchmarks
// <name>/generic and <name>/avx.
func twins(b *testing.B, name string, f func(b *testing.B)) {
	for _, vector := range []bool{false, true} {
		if vector && !haveAVX {
			continue
		}
		kernel := "generic"
		if vector {
			kernel = "avx"
		}
		b.Run(name+"/"+kernel, func(b *testing.B) { withVector(vector, func() { f(b) }) })
	}
}

// BenchmarkAdamStep times one Adam update over the parameter counts
// training updates: the whole of Fig. 9's depth-4 predictor net
// (10-256-256-1, 68,609 parameters) and one GCN Cora layer-1 weight
// matrix (1433×256).
func BenchmarkAdamStep(b *testing.B) {
	for _, sh := range []struct {
		name string
		n    int
	}{{"mlp-depth4-68609", 68609}, {"gcn-cora-1433x256", 1433 * 256}} {
		rng := rand.New(rand.NewSource(1))
		w, g, m, v := benchMatrix(rng, 1, sh.n, 0).Data, benchMatrix(rng, 1, sh.n, 0).Data,
			benchMatrix(rng, 1, sh.n, 0).Data, benchMatrix(rng, 1, sh.n, 0).Data
		for i := range v {
			v[i] = math.Abs(v[i])
		}
		k := mlpCoef(1e-3, 1)
		twins(b, sh.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				AdamStep(w, g, m, v, k)
			}
		})
	}
}

// BenchmarkReLU times ReLUInPlace and ReLUMaskInPlace on the 16×256
// hidden activations of a batch-16 MLP step, about half of them
// non-positive. ReLUInPlace refills its input every iteration (the
// copy is timed too) so the branchy generic twin never sees an
// all-positive matrix.
func BenchmarkReLU(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	act, d := benchMatrix(rng, 16, 256, 0), benchMatrix(rng, 16, 256, 0)
	x := New(16, 256)
	twins(b, "relu-16x256", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(x.Data, act.Data)
			x.ReLUInPlace()
		}
	})
	twins(b, "relumask-16x256", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d.ReLUMaskInPlace(act)
		}
	})
}
