// Package tensor provides the dense float64 matrix type and the small
// set of linear-algebra operations GoPIM needs: matrix products,
// element-wise maps, row/column reductions, and random initialisation.
//
// The package is deliberately minimal — it backs the GCN training
// engine and the MLP time predictor, both of which only require dense
// GEMM-style kernels. Sparse adjacency matrices live in package
// sparsemat.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"gopim/internal/parallel"
)

// Matrix is a dense, row-major float64 matrix.
//
// The zero value is an empty (0×0) matrix. Use New, NewFromRows, or the
// random constructors for anything else.
type Matrix struct {
	Rows, Cols int
	// Data holds the entries in row-major order: element (r, c) lives
	// at Data[r*Cols+c]. Its length is always Rows*Cols.
	Data []float64
}

// New returns a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// NewFromRows builds a matrix from a slice of equally sized rows.
func NewFromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for r, row := range rows {
		if len(row) != cols {
			panic(fmt.Sprintf("tensor: ragged rows: row %d has %d cols, want %d", r, len(row), cols))
		}
		copy(m.Data[r*cols:(r+1)*cols], row)
	}
	return m
}

// NewRandom returns a rows×cols matrix with entries drawn uniformly
// from [-scale, scale] using rng.
func NewRandom(rng *rand.Rand, rows, cols int, scale float64) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		// float64(·) stops Float64's internal scaling from fusing with
		// the -1 into an FMA (see axpy.go), which would round once.
		m.Data[i] = (float64(rng.Float64())*2 - 1) * scale
	}
	return m
}

// NewGlorot returns a rows×cols matrix initialised with the Glorot
// (Xavier) uniform scheme, the standard initialisation for GCN and MLP
// weight matrices.
func NewGlorot(rng *rand.Rand, rows, cols int) *Matrix {
	limit := math.Sqrt(6.0 / float64(rows+cols))
	return NewRandom(rng, rows, cols, limit)
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) float64 {
	m.check(r, c)
	return m.Data[r*m.Cols+c]
}

// Set stores v at element (r, c).
func (m *Matrix) Set(r, c int, v float64) {
	m.check(r, c)
	m.Data[r*m.Cols+c] = v
}

// Add accumulates v into element (r, c).
func (m *Matrix) Add(r, c int, v float64) {
	m.check(r, c)
	m.Data[r*m.Cols+c] += v
}

func (m *Matrix) check(r, c int) {
	if r < 0 || r >= m.Rows || c < 0 || c >= m.Cols {
		panic(fmt.Sprintf("tensor: index (%d,%d) out of range %dx%d", r, c, m.Rows, m.Cols))
	}
}

// Row returns the r-th row as a slice aliasing the matrix storage.
// Mutating the returned slice mutates the matrix.
func (m *Matrix) Row(r int) []float64 {
	if r < 0 || r >= m.Rows {
		panic(fmt.Sprintf("tensor: row %d out of range %d", r, m.Rows))
	}
	return m.Data[r*m.Cols : (r+1)*m.Cols]
}

// SetRow copies v into row r. len(v) must equal Cols.
func (m *Matrix) SetRow(r int, v []float64) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: SetRow length %d != cols %d", len(v), m.Cols))
	}
	copy(m.Row(r), v)
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// CopyFrom overwrites m's contents with src's. Dimensions must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: CopyFrom shape mismatch %dx%d <- %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	copy(m.Data, src.Data)
}

// Zero sets every entry to 0 in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// transposeParallelMin is the element count below which T stays
// serial; tiny transposes are dominated by goroutine handoff, not
// copying.
const transposeParallelMin = 1 << 14

// T returns the transpose of m as a new matrix. Large matrices are
// copied in parallel, one block of output rows per worker; each output
// row is written by exactly one worker, so the result is identical at
// any worker count.
func (m *Matrix) T() *Matrix {
	out := New(m.Cols, m.Rows)
	if m.Rows*m.Cols < transposeParallelMin {
		TransposeInto(out, m)
		return out
	}
	grain := transposeParallelMin / (m.Rows + 1)
	parallel.For(m.Cols, grain+1, func(lo, hi int) {
		transposeBlock(out.Data[lo*out.Cols:], out.Cols, m.Data[lo:], m.Cols, m.Rows, hi-lo)
	})
	return out
}

// transposeStrip is how many source rows a transpose copies per pass:
// eight float64 values fill a 64-byte cache line, so every dst line is
// written whole in one visit. A whole-row scatter writes one element
// per dst line per source row, and when dst's row stride is a multiple
// of 512 B those lines share a few L1 sets and are evicted before they
// fill.
const transposeStrip = 8

// TransposeInto computes dst = srcᵀ, reusing dst's storage. dst must
// be src.Cols × src.Rows and must not alias src. It runs serially
// regardless of size: transposes on the training hot path sit inside
// already-parallel sections, and a copy is exact, so there is no
// accumulation order to protect.
func TransposeInto(dst, src *Matrix) {
	if dst.Rows != src.Cols || dst.Cols != src.Rows {
		panic(fmt.Sprintf("tensor: TransposeInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, src.Cols, src.Rows))
	}
	if aliases(dst, src) {
		panic("tensor: TransposeInto dst must not alias src")
	}
	transposeBlock(dst.Data, dst.Cols, src.Data, src.Cols, src.Rows, src.Cols)
}

// transposeBlock copies the rows×cols block at src (row stride ss)
// transposed into dst (row stride ds), transposeStrip source rows at a
// time.
func transposeBlock(dst []float64, ds int, src []float64, ss, rows, cols int) {
	for r0 := 0; r0 < rows; r0 += transposeStrip {
		n := min(transposeStrip, rows-r0)
		for c := 0; c < cols; c++ {
			d := dst[c*ds+r0 : c*ds+r0+n]
			s := src[r0*ss+c:]
			for k := range d {
				d[k] = s[k*ss]
			}
		}
	}
}

// MatMul returns a*b. Panics if the inner dimensions disagree.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d != %d", a.Cols, b.Rows))
	}
	out := New(a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
}

// aliases reports whether two matrices share storage. All Matrix
// values own their whole Data slice (every constructor allocates with
// make), so shared storage always means the slices start at the same
// element.
func aliases(x, y *Matrix) bool {
	return len(x.Data) > 0 && len(y.Data) > 0 && &x.Data[0] == &y.Data[0]
}

// matmulParallelMinFLOPs is the multiply-add count below which the
// GEMM entry points stay on the serial kernel; the MLP predictor
// issues thousands of tiny batch-16 GEMMs where fork/join overhead
// would swamp the arithmetic.
const matmulParallelMinFLOPs = 1 << 16

// gemmTaskFLOPs is the least work one parallel GEMM task carries.
// Together with the gemmBlockI row floor it keeps a task long enough
// to amortise its handoff and to reuse each b panel across a full
// row tile: one-row tasks re-stream all of b per output row.
const gemmTaskFLOPs = 1 << 18

// GEMM cache-blocking tile sizes (elements). The kernel processes
// gemmBlockI output rows at a time against kc×jc blocks of b: a
// 128×128 float64 block of b (128 KiB, L2-resident) is reused across
// the whole row tile instead of b being re-streamed from memory once
// per output row. Tiling only reorders the i/j traversal; for every
// output element the k-summation order is unchanged, which keeps
// blocked results byte-identical to the unblocked kernel.
const (
	gemmBlockI = 32
	gemmBlockK = 128
	gemmBlockJ = 128
)

// gemmRows runs kernel over dst's rows [0, rows), where each row costs
// flopsPerRow multiply-adds: serially for small products, otherwise in
// contiguous row blocks on the worker pool. Every row is computed by
// exactly one call in the same order as the serial loop, so the result
// is byte-identical at any worker count. The grain depends on the
// shape alone, which keeps the parallel.* Sim counters worker-count
// independent.
func gemmRows(kernel func(dst, a, b *Matrix, lo, hi int), dst, a, b *Matrix, rows, flopsPerRow int) {
	if rows*flopsPerRow < matmulParallelMinFLOPs {
		kernel(dst, a, b, 0, rows)
		return
	}
	grain := max(gemmBlockI, gemmTaskFLOPs/max(flopsPerRow, 1))
	// One-worker runs take the serial path without building the
	// escaping closure For needs — the training hot loop stays
	// allocation-free on single-core hosts.
	if parallel.Serial(rows, grain) {
		kernel(dst, a, b, 0, rows)
		return
	}
	parallel.For(rows, grain, func(lo, hi int) {
		kernel(dst, a, b, lo, hi)
	})
}

// MatMulInto computes dst = a*b, reusing dst's storage.
// dst must be a.Rows × b.Cols and must not alias a or b (checked —
// aliased storage would silently corrupt the accumulation).
//
// Large products run row-blocked in parallel (gemmRows). Within a row
// the kernel is cache-blocked over k and j (see gemmBlockK/gemmBlockJ);
// per output element the accumulation order is still k-ascending with
// the same zero-skip, so blocking never changes a single output bit.
func MatMulInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d != %d", a.Cols, b.Rows))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	if aliases(dst, a) || aliases(dst, b) {
		panic("tensor: MatMulInto dst must not alias a or b")
	}
	gemmRows(matMulBlock, dst, a, b, a.Rows, a.Cols*b.Cols)
}

// matMulBlock computes dst rows [lo, hi) = a[lo:hi]·b with i/k/j
// tiling. Accumulation per output element stays k-ascending with the
// historic zero-skip, so the result is byte-identical to the old
// unblocked ikj loop at any tile size.
func matMulBlock(dst, a, b *Matrix, lo, hi int) {
	cols := b.Cols
	inner := a.Cols
	if cols == 1 {
		// Matrix·vector: b's single column is contiguous, so each output
		// element is a straight dot product. The tile machinery would
		// re-slice b once per k-step for a single element; the dot loop
		// below runs the identical zero-skip/paired accumulation sequence
		// in registers and stores each result once.
		for i := lo; i < hi; i++ {
			dst.Data[i] = pairedDot(a.Row(i), b.Data)
		}
		return
	}
	clear(dst.Data[lo*cols : hi*cols])
	for i0 := lo; i0 < hi; i0 += gemmBlockI {
		i1 := min(i0+gemmBlockI, hi)
		for k0 := 0; k0 < inner; k0 += gemmBlockK {
			k1 := min(k0+gemmBlockK, inner)
			for j0 := 0; j0 < cols; j0 += gemmBlockJ {
				j1 := min(j0+gemmBlockJ, cols)
				for i := i0; i < i1; i++ {
					accumulateRow(dst.Data[i*cols+j0:i*cols+j1], a.Data[i*inner:], 1, b.Data, cols, j0, k0, k1)
				}
			}
		}
	}
}

// accumulateRow adds Σₖ a[k·stride]·b[k, j0:j0+len(ot)] for k in
// [k0, k1) into the output tile ot, k-ascending. Zero entries of a are
// skipped without an FP op (`x + 0·y` is not an identity for x = -0 or
// y = ±Inf), and consecutive nonzero k-steps are paired into one
// axpyPair pass: each output element still receives its updates one k
// at a time in ascending order, two separately rounded multiply/add
// steps per pass, so the bits match the one-k-per-pass loop while ot
// is loaded and stored half as often. b is row-major with row length
// cols.
func accumulateRow(ot, a []float64, stride int, b []float64, cols, j0, k0, k1 int) {
	n := len(ot)
	k := k0
	for k < k1 {
		av0 := a[k*stride]
		if av0 == 0 {
			k++
			continue
		}
		k2 := k + 1
		for k2 < k1 && a[k2*stride] == 0 {
			k2++
		}
		bt0 := b[k*cols+j0 : k*cols+j0+n]
		if k2 < k1 {
			axpyPair(ot, bt0, b[k2*cols+j0:k2*cols+j0+n], av0, a[k2*stride])
			k = k2 + 1
		} else {
			axpy1(ot, bt0, av0)
			k = k1
		}
	}
}

// pairedDot returns Σₖ a[k]·b[k] accumulated exactly as the blocked
// GEMM kernel accumulates one output element: k-ascending, zero entries
// of a skipped without an FP op, and consecutive nonzero k-steps paired
// into two separately rounded add/mul steps. Any kernel built on it is
// byte-identical to matMulBlock for the same operand values.
func pairedDot(a, b []float64) float64 {
	b = b[:len(a)]
	var acc float64
	k := 0
	for k < len(a) {
		av0 := a[k]
		if av0 == 0 {
			k++
			continue
		}
		k2 := k + 1
		for k2 < len(a) && a[k2] == 0 {
			k2++
		}
		if k2 < len(a) {
			v := acc + float64(av0*b[k])
			acc = v + float64(a[k2]*b[k2])
			k = k2 + 1
		} else {
			acc += float64(av0 * b[k])
			k = len(a)
		}
	}
	return acc
}

// pairedDotStride is pairedDot with a strided left operand: it reads
// a[k*stride] for k in [0, n) — column i of a row-major matrix when
// called with a = Data[i:] — against a contiguous b. The accumulation
// sequence is identical to pairedDot on the gathered column.
func pairedDotStride(a []float64, stride, n int, b []float64) float64 {
	b = b[:n]
	var acc float64
	k := 0
	for k < n {
		av0 := a[k*stride]
		if av0 == 0 {
			k++
			continue
		}
		k2 := k + 1
		for k2 < n && a[k2*stride] == 0 {
			k2++
		}
		if k2 < n {
			v := acc + float64(av0*b[k])
			acc = v + float64(a[k2*stride]*b[k2])
			k = k2 + 1
		} else {
			acc += float64(av0 * b[k])
			k = n
		}
	}
	return acc
}

// MatMulTNInto computes dst = aᵀ·b without materialising the
// transpose, reusing dst's storage. dst must be a.Cols × b.Cols and
// must not alias a or b. It is byte-identical to
// TransposeInto(at, a); MatMulInto(dst, at, b): per output element the
// accumulation runs k-ascending over a's rows with the same zero-skip
// and pairing as the plain kernel, only the gather of aᵀ's row (a
// strided column read of a) is fused into the product.
//
// Training backward passes use it for weight gradients (dW = Xᵀ·Δ),
// where materialising Xᵀ once per mini-batch cost more than the
// product itself on thin matrices.
func MatMulTNInto(dst, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTN inner dims %d != %d", a.Rows, b.Rows))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTNInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
	if aliases(dst, a) || aliases(dst, b) {
		panic("tensor: MatMulTNInto dst must not alias a or b")
	}
	gemmRows(matMulTNBlock, dst, a, b, dst.Rows, a.Rows*b.Cols)
}

// matMulTNBlock computes dst rows [lo, hi) of aᵀ·b. Row i of dst reads
// column i of a (stride a.Cols); the k/j tiling mirrors matMulBlock and
// per output element the k order, zero-skip and pairing are unchanged.
func matMulTNBlock(dst, a, b *Matrix, lo, hi int) {
	cols := b.Cols
	inner := a.Rows
	ac := a.Cols
	if cols == 1 {
		for i := lo; i < hi; i++ {
			dst.Data[i] = pairedDotStride(a.Data[i:], ac, inner, b.Data)
		}
		return
	}
	clear(dst.Data[lo*cols : hi*cols])
	for k0 := 0; k0 < inner; k0 += gemmBlockK {
		k1 := min(k0+gemmBlockK, inner)
		for j0 := 0; j0 < cols; j0 += gemmBlockJ {
			j1 := min(j0+gemmBlockJ, cols)
			for i := lo; i < hi; i++ {
				accumulateRow(dst.Data[i*cols+j0:i*cols+j1], a.Data[i:], ac, b.Data, cols, j0, k0, k1)
			}
		}
	}
}

// ntPanels recycles matMulNTBlock's bᵀ panels (*ntPanel values): one
// per running task, so a·bᵀ never holds more than a gemmBlockK ×
// gemmBlockJ copy of b per worker, whatever b's size.
var ntPanels sync.Pool

type ntPanel [gemmBlockK * gemmBlockJ]float64

// MatMulNTInto computes dst = a·bᵀ, reusing dst's storage. dst must be
// a.Rows × b.Rows and must not alias a or b. It is byte-identical to
// TransposeInto(bt, b); MatMulInto(dst, a, bt): the kernel copies each
// k×j block of bᵀ into a panel — an exact copy — and runs the plain
// kernel's row loop on it, so its inner loops are the contiguous
// leaves rather than strided reads of b.
//
// Training backward passes use it to push gradients through a layer
// (dX = Δ·Wᵀ).
func MatMulNTInto(dst, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulNT inner dims %d != %d", a.Cols, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulNTInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	if aliases(dst, a) || aliases(dst, b) {
		panic("tensor: MatMulNTInto dst must not alias a or b")
	}
	gemmRows(matMulNTBlock, dst, a, b, a.Rows, a.Cols*b.Rows)
}

// matMulNTBlock computes dst rows [lo, hi) of a·bᵀ. For each k×j block
// it transposes b[j0:j1, k0:k1] into a panel once and accumulates every
// row of the range against it, as matMulTNBlock does with b's blocks;
// per output element the k order, zero-skip and pairing are those of
// matMulBlock.
func matMulNTBlock(dst, a, b *Matrix, lo, hi int) {
	cols := b.Rows
	inner := a.Cols
	if cols == 1 {
		// bᵀ is a single contiguous column: b's only row.
		for i := lo; i < hi; i++ {
			dst.Data[i] = pairedDot(a.Row(i), b.Data)
		}
		return
	}
	p, _ := ntPanels.Get().(*ntPanel)
	if p == nil {
		p = new(ntPanel)
	}
	clear(dst.Data[lo*cols : hi*cols])
	for k0 := 0; k0 < inner; k0 += gemmBlockK {
		k1 := min(k0+gemmBlockK, inner)
		for j0 := 0; j0 < cols; j0 += gemmBlockJ {
			j1 := min(j0+gemmBlockJ, cols)
			w := j1 - j0
			panel := p[:(k1-k0)*w]
			transposeBlock(panel, w, b.Data[j0*inner+k0:], inner, w, k1-k0)
			for i := lo; i < hi; i++ {
				accumulateRow(dst.Data[i*cols+j0:i*cols+j1], a.Data[i*inner+k0:], 1, panel, w, 0, 0, k1-k0)
			}
		}
	}
	ntPanels.Put(p)
}

// AddInPlace computes m += other element-wise.
func (m *Matrix) AddInPlace(other *Matrix) {
	m.sameShape(other, "AddInPlace")
	for i, v := range other.Data {
		m.Data[i] += v
	}
}

// SubInPlace computes m -= other element-wise.
func (m *Matrix) SubInPlace(other *Matrix) {
	m.sameShape(other, "SubInPlace")
	for i, v := range other.Data {
		m.Data[i] -= v
	}
}

// MulInPlace computes m *= other element-wise (Hadamard product).
func (m *Matrix) MulInPlace(other *Matrix) {
	m.sameShape(other, "MulInPlace")
	for i, v := range other.Data {
		m.Data[i] *= v
	}
}

// ScaleInPlace multiplies every entry by s.
func (m *Matrix) ScaleInPlace(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// AXPY computes m += s*other element-wise.
func (m *Matrix) AXPY(s float64, other *Matrix) {
	m.sameShape(other, "AXPY")
	for i, v := range other.Data {
		m.Data[i] += float64(s * v)
	}
}

func (m *Matrix) sameShape(other *Matrix, op string) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, m.Rows, m.Cols, other.Rows, other.Cols))
	}
}

// Apply replaces every entry x with f(x).
func (m *Matrix) Apply(f func(float64) float64) {
	for i, v := range m.Data {
		m.Data[i] = f(v)
	}
}

// Map returns a new matrix whose entries are f applied to m's entries.
func (m *Matrix) Map(f func(float64) float64) *Matrix {
	out := m.Clone()
	out.Apply(f)
	return out
}

// ReLU returns max(x, 0) applied element-wise as a new matrix.
func (m *Matrix) ReLU() *Matrix {
	return m.Map(func(x float64) float64 {
		if x > 0 {
			return x
		}
		return 0
	})
}

// ReLUInPlace applies max(x, 0) element-wise in place. The predicate
// mirrors ReLU exactly (anything not greater than zero, NaN included,
// becomes 0) so the two paths stay bit-identical.
func (m *Matrix) ReLUInPlace() {
	for i, v := range m.Data {
		if !(v > 0) {
			m.Data[i] = 0
		}
	}
}

// ReLUMask returns a matrix with 1 where m > 0 and 0 elsewhere —
// the derivative of ReLU used during backpropagation.
func (m *Matrix) ReLUMask() *Matrix {
	return m.Map(func(x float64) float64 {
		if x > 0 {
			return 1
		}
		return 0
	})
}

// AddRowVector adds v to every row of m in place. len(v) must be Cols.
func (m *Matrix) AddRowVector(v []float64) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: AddRowVector length %d != cols %d", len(v), m.Cols))
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for c := range row {
			row[c] += v[c]
		}
	}
}

// ColSums returns the per-column sums of m.
func (m *Matrix) ColSums() []float64 {
	sums := make([]float64, m.Cols)
	m.ColSumsInto(sums)
	return sums
}

// ColSumsInto accumulates the per-column sums of m into sums,
// zeroing it first. len(sums) must equal Cols.
func (m *Matrix) ColSumsInto(sums []float64) {
	if len(sums) != m.Cols {
		panic(fmt.Sprintf("tensor: ColSumsInto length %d != cols %d", len(sums), m.Cols))
	}
	for c := range sums {
		sums[c] = 0
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for c, v := range row {
			sums[c] += v
		}
	}
}

// FrobeniusNorm returns sqrt(Σ x²).
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += float64(v * v)
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest absolute entry, or 0 for an empty matrix.
func (m *Matrix) MaxAbs() float64 {
	var max float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// Equal reports whether m and other have identical shape and entries
// within tolerance eps.
func (m *Matrix) Equal(other *Matrix, eps float64) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(v-other.Data[i]) > eps {
			return false
		}
	}
	return true
}

// String renders a compact description, not the full contents.
func (m *Matrix) String() string {
	return fmt.Sprintf("tensor.Matrix(%dx%d)", m.Rows, m.Cols)
}

// ArgMaxRow returns the column index of the largest entry in row r.
func (m *Matrix) ArgMaxRow(r int) int {
	row := m.Row(r)
	best, bestV := 0, math.Inf(-1)
	for c, v := range row {
		if v > bestV {
			best, bestV = c, v
		}
	}
	return best
}

// SoftmaxRows returns a new matrix with a numerically stable softmax
// applied to every row.
func (m *Matrix) SoftmaxRows() *Matrix {
	out := New(m.Rows, m.Cols)
	m.SoftmaxRowsInto(out)
	return out
}

// SoftmaxRowsInto writes the row-wise softmax of m into out, reusing
// out's storage. out must match m's shape and not alias it.
func (m *Matrix) SoftmaxRowsInto(out *Matrix) {
	m.sameShape(out, "SoftmaxRowsInto")
	if aliases(out, m) {
		panic("tensor: SoftmaxRowsInto out must not alias m")
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		orow := out.Row(r)
		max := math.Inf(-1)
		for _, v := range row {
			if v > max {
				max = v
			}
		}
		var sum float64
		for c, v := range row {
			e := math.Exp(v - max)
			orow[c] = e
			sum += e
		}
		if sum == 0 {
			continue
		}
		for c := range orow {
			orow[c] /= sum
		}
	}
}
