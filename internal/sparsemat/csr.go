// Package sparsemat implements compressed sparse row (CSR) matrices
// and the sparse-dense products used by GCN aggregation (Â·H) and its
// backward pass (Âᵀ·G).
//
// GCN aggregation multiplies the (normalised) adjacency matrix by the
// dense feature matrix; adjacency matrices of the paper's datasets are
// far too sparse to store densely, so all graph-side linear algebra in
// this repository goes through this package.
package sparsemat

import (
	"fmt"
	"math"
	"sort"

	"gopim/internal/parallel"
	"gopim/internal/tensor"
)

// CSR is a compressed-sparse-row matrix.
//
// RowPtr has length Rows+1; the column indices of row r are
// ColIdx[RowPtr[r]:RowPtr[r+1]] with matching values in Val.
// Column indices within a row are kept sorted and unique.
type CSR struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int
	Val        []float64
}

// Entry is one (row, col, value) triple used when building a CSR
// matrix from coordinate form.
type Entry struct {
	Row, Col int
	Val      float64
}

// NewFromEntries builds a CSR matrix from coordinate-form entries.
// Duplicate (row, col) pairs are summed. Entries out of range panic.
func NewFromEntries(rows, cols int, entries []Entry) *CSR {
	for _, e := range entries {
		if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
			panic(fmt.Sprintf("sparsemat: entry (%d,%d) out of range %dx%d", e.Row, e.Col, rows, cols))
		}
	}
	sorted := make([]Entry, len(entries))
	copy(sorted, entries)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})
	m := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	for i := 0; i < len(sorted); {
		j := i
		v := 0.0
		for j < len(sorted) && sorted[j].Row == sorted[i].Row && sorted[j].Col == sorted[i].Col {
			v += sorted[j].Val
			j++
		}
		m.ColIdx = append(m.ColIdx, sorted[i].Col)
		m.Val = append(m.Val, v)
		m.RowPtr[sorted[i].Row+1]++
		i = j
	}
	for r := 0; r < rows; r++ {
		m.RowPtr[r+1] += m.RowPtr[r]
	}
	return m
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// RowNNZ returns the number of stored entries in row r.
func (m *CSR) RowNNZ(r int) int { return m.RowPtr[r+1] - m.RowPtr[r] }

// Row returns the column indices and values of row r; the returned
// slices alias the matrix storage.
func (m *CSR) Row(r int) (cols []int, vals []float64) {
	if r < 0 || r >= m.Rows {
		panic(fmt.Sprintf("sparsemat: row %d out of range %d", r, m.Rows))
	}
	return m.ColIdx[m.RowPtr[r]:m.RowPtr[r+1]], m.Val[m.RowPtr[r]:m.RowPtr[r+1]]
}

// At returns element (r, c), 0 if not stored. O(log nnz(row)).
func (m *CSR) At(r, c int) float64 {
	cols, vals := m.Row(r)
	i := sort.SearchInts(cols, c)
	if i < len(cols) && cols[i] == c {
		return vals[i]
	}
	return 0
}

// Sparsity returns the fraction of zero entries, in [0,1].
func (m *CSR) Sparsity() float64 {
	total := float64(m.Rows) * float64(m.Cols)
	if total == 0 {
		return 0
	}
	return 1 - float64(m.NNZ())/total
}

// spmmParallelMinFLOPs is the multiply-add count below which MulDense
// stays serial; tiny aggregations are cheaper than a fork/join.
const spmmParallelMinFLOPs = 1 << 15

// MulDense returns m · d as a dense matrix. m.Cols must equal d.Rows.
//
// Large products (GCN aggregation Â·H) run row-parallel: each worker
// owns a contiguous block of output rows and accumulates each row in
// stored-column order exactly as the serial loop does, so the result
// is byte-identical at any worker count.
func (m *CSR) MulDense(d *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(m.Rows, d.Cols)
	m.MulDenseInto(out, d)
	return out
}

// MulDenseInto computes dst = m · d, reusing dst's storage. dst must
// be m.Rows × d.Cols and must not alias d. Parallelisation and
// per-row accumulation order are identical to MulDense, so the two
// are byte-identical at any worker count.
func (m *CSR) MulDenseInto(dst, d *tensor.Matrix) {
	if m.Cols != d.Rows {
		panic(fmt.Sprintf("sparsemat: MulDense inner dims %d != %d", m.Cols, d.Rows))
	}
	if dst.Rows != m.Rows || dst.Cols != d.Cols {
		panic(fmt.Sprintf("sparsemat: MulDenseInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, m.Rows, d.Cols))
	}
	if len(dst.Data) > 0 && len(d.Data) > 0 && &dst.Data[0] == &d.Data[0] {
		panic("sparsemat: MulDenseInto dst must not alias d")
	}
	if m.NNZ()*d.Cols < spmmParallelMinFLOPs {
		m.mulDenseRows(dst, d, 0, m.Rows)
		return
	}
	// Size blocks by average row cost; power-law rows are imbalanced,
	// but blocks are claimed dynamically so dense rows just slow their
	// own block, never the partitioning.
	avgFlopsPerRow := m.NNZ()*d.Cols/m.Rows + 1
	grain := spmmParallelMinFLOPs / (4 * avgFlopsPerRow)
	// One-worker runs skip the closure build entirely (see
	// parallel.Serial) so aggregation stays allocation-free on
	// single-core hosts.
	if parallel.Serial(m.Rows, grain+1) {
		m.mulDenseRows(dst, d, 0, m.Rows)
		return
	}
	parallel.For(m.Rows, grain+1, func(lo, hi int) {
		m.mulDenseRows(dst, d, lo, hi)
	})
}

// mulDenseRows computes dst rows [lo, hi) of m·d, each row owned
// exclusively by its caller block.
func (m *CSR) mulDenseRows(dst, d *tensor.Matrix, lo, hi int) {
	for r := lo; r < hi; r++ {
		cols, vals := m.Row(r)
		orow := dst.Row(r)
		for j := range orow {
			orow[j] = 0
		}
		// Pair consecutive nonzeros: each output element still
		// accumulates one (value, neighbour-row) term at a time in
		// ascending column order — two separately rounded steps per
		// pass — so the bits match the one-term-per-pass loop while
		// orow is loaded and stored half as often. The float64(·)
		// conversions forbid fusing a product into an FMA, which rounds
		// once (Go spec; arm64 compilers fuse), so each product rounds
		// as written on every architecture.
		i := 0
		for ; i+1 < len(cols); i += 2 {
			v0, v1 := vals[i], vals[i+1]
			d0 := d.Row(cols[i])
			d1 := d.Row(cols[i+1])
			d1 = d1[:len(d0)]
			ob := orow[:len(d0)]
			for j, dv := range d0 {
				t := ob[j] + float64(v0*dv)
				ob[j] = t + float64(v1*d1[j])
			}
		}
		if i < len(cols) {
			v := vals[i]
			drow := d.Row(cols[i])
			ob := orow[:len(drow)]
			for j, dv := range drow {
				ob[j] += float64(v * dv)
			}
		}
	}
}

// TMulDense returns mᵀ · d without materialising the transpose.
// m.Rows must equal d.Rows.
func (m *CSR) TMulDense(d *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(m.Cols, d.Cols)
	m.TMulDenseInto(out, d)
	return out
}

// TMulDenseInto computes dst = mᵀ · d without materialising the
// transpose, reusing dst's storage. dst must be m.Cols × d.Cols and
// must not alias d. The scatter loop is serial: output rows are
// written in source-row order, so for each output row contributions
// accumulate in ascending source-row order — exactly the order
// Transpose().MulDenseInto produces, which is why the GCN backward
// pass can swap between the two without changing a bit.
func (m *CSR) TMulDenseInto(dst, d *tensor.Matrix) {
	if m.Rows != d.Rows {
		panic(fmt.Sprintf("sparsemat: TMulDense dims %d != %d", m.Rows, d.Rows))
	}
	if dst.Rows != m.Cols || dst.Cols != d.Cols {
		panic(fmt.Sprintf("sparsemat: TMulDenseInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, m.Cols, d.Cols))
	}
	if len(dst.Data) > 0 && len(d.Data) > 0 && &dst.Data[0] == &d.Data[0] {
		panic("sparsemat: TMulDenseInto dst must not alias d")
	}
	dst.Zero()
	for r := 0; r < m.Rows; r++ {
		cols, vals := m.Row(r)
		drow := d.Row(r)
		for i, c := range cols {
			v := vals[i]
			orow := dst.Row(c)
			for j, dv := range drow {
				orow[j] += float64(v * dv)
			}
		}
	}
}

// Transpose returns mᵀ as a new CSR built by counting sort: O(nnz),
// and output rows inherit ascending column order from the source row
// sweep, so the sorted-column invariant holds. The GCN training loop
// builds Âᵀ once per run and routes the backward aggregation through
// the row-parallel MulDense path; because each transposed row lists
// its entries in ascending source-row order, that product accumulates
// every output element in exactly TMulDense's order.
func (m *CSR) Transpose() *CSR {
	nnz := m.NNZ()
	out := &CSR{
		Rows:   m.Cols,
		Cols:   m.Rows,
		RowPtr: make([]int, m.Cols+1),
		ColIdx: make([]int, nnz),
		Val:    make([]float64, nnz),
	}
	for _, c := range m.ColIdx {
		out.RowPtr[c+1]++
	}
	for r := 0; r < m.Cols; r++ {
		out.RowPtr[r+1] += out.RowPtr[r]
	}
	next := make([]int, m.Cols)
	copy(next, out.RowPtr[:m.Cols])
	for r := 0; r < m.Rows; r++ {
		start, end := m.RowPtr[r], m.RowPtr[r+1]
		for i := start; i < end; i++ {
			c := m.ColIdx[i]
			p := next[c]
			out.ColIdx[p] = r
			out.Val[p] = m.Val[i]
			next[c]++
		}
	}
	return out
}

// Dense expands the matrix into a dense tensor.Matrix (test helper;
// avoid for paper-scale graphs).
func (m *CSR) Dense() *tensor.Matrix {
	out := tensor.New(m.Rows, m.Cols)
	for r := 0; r < m.Rows; r++ {
		cols, vals := m.Row(r)
		for i, c := range cols {
			out.Set(r, c, vals[i])
		}
	}
	return out
}

// Scale returns a copy of m with every value multiplied by s.
func (m *CSR) Scale(s float64) *CSR {
	out := m.clone()
	for i := range out.Val {
		out.Val[i] *= s
	}
	return out
}

func (m *CSR) clone() *CSR {
	out := &CSR{
		Rows:   m.Rows,
		Cols:   m.Cols,
		RowPtr: append([]int(nil), m.RowPtr...),
		ColIdx: append([]int(nil), m.ColIdx...),
		Val:    append([]float64(nil), m.Val...),
	}
	return out
}

// SymNormalized returns D^{-1/2}·(m+I)·D^{-1/2}, the symmetric GCN
// normalisation of an adjacency matrix with self-loops, where D is the
// degree matrix of m+I. m must be square.
func (m *CSR) SymNormalized() *CSR {
	if m.Rows != m.Cols {
		panic(fmt.Sprintf("sparsemat: SymNormalized needs square matrix, got %dx%d", m.Rows, m.Cols))
	}
	n := m.Rows
	entries := make([]Entry, 0, m.NNZ()+n)
	for r := 0; r < n; r++ {
		cols, vals := m.Row(r)
		for i, c := range cols {
			entries = append(entries, Entry{Row: r, Col: c, Val: vals[i]})
		}
		entries = append(entries, Entry{Row: r, Col: r, Val: 1}) // self loop
	}
	withLoops := NewFromEntries(n, n, entries)
	// Both passes are per-row independent — deg[r] and row r's values
	// are owned by exactly one worker — so the normalisation is
	// byte-identical at any worker count.
	deg := make([]float64, n)
	parallel.For(n, 4096, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			_, vals := withLoops.Row(r)
			for _, v := range vals {
				deg[r] += v
			}
		}
	})
	out := withLoops.clone()
	parallel.For(n, 4096, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			start, end := out.RowPtr[r], out.RowPtr[r+1]
			dr := math.Sqrt(deg[r])
			for i := start; i < end; i++ {
				dc := math.Sqrt(deg[out.ColIdx[i]])
				if dr > 0 && dc > 0 {
					out.Val[i] /= dr * dc
				}
			}
		}
	})
	return out
}

// RowMask returns a copy of m with rows r where keep[r] == false
// zeroed out, emulating dropped contributions of masked vertices.
func (m *CSR) RowMask(keep []bool) *CSR {
	if len(keep) != m.Rows {
		panic(fmt.Sprintf("sparsemat: RowMask length %d != rows %d", len(keep), m.Rows))
	}
	entries := make([]Entry, 0, m.NNZ())
	for r := 0; r < m.Rows; r++ {
		if !keep[r] {
			continue
		}
		cols, vals := m.Row(r)
		for i, c := range cols {
			entries = append(entries, Entry{Row: r, Col: c, Val: vals[i]})
		}
	}
	return NewFromEntries(m.Rows, m.Cols, entries)
}

// String renders a compact description.
func (m *CSR) String() string {
	return fmt.Sprintf("sparsemat.CSR(%dx%d, nnz=%d)", m.Rows, m.Cols, m.NNZ())
}
