// Package sparse implements the compressed sparse row (CSR) matrix type and
// the structural operations the resilient solver stack needs: COO assembly,
// sparse matrix-vector products, row-block slicing for the block-row data
// distribution, submatrix extraction A[I,J] for the reconstruction subsystem
// A_{If,If}, and structural statistics (bandwidth, symmetry).
package sparse

import (
	"fmt"
	"math"
	"sort"
)

// CSR is a sparse matrix in compressed sparse row format. Rows and Cols give
// the logical dimensions; for each row i, the column indices Col[RowPtr[i]:
// RowPtr[i+1]] are strictly increasing and Val holds the matching values.
// RowPtr and Col are immutable once the matrix is built: derived structures
// (an ILU(0) factor, sub-slices returned by Row) share them read-only.
type CSR struct {
	Rows, Cols int
	RowPtr     []int
	Col        []int
	Val        []float64
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Col) }

// Dims returns the (rows, cols) dimensions.
func (m *CSR) Dims() (int, int) { return m.Rows, m.Cols }

// Row returns the column indices and values of row i as sub-slices of the
// matrix storage. The caller must not modify the column indices.
func (m *CSR) Row(i int) (cols []int, vals []float64) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return m.Col[lo:hi], m.Val[lo:hi]
}

// At returns the entry at (i, j), or 0 if it is not stored.
func (m *CSR) At(i, j int) float64 {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	cols := m.Col[lo:hi]
	k := sort.SearchInts(cols, j)
	if k < len(cols) && cols[k] == j {
		return m.Val[lo+k]
	}
	return 0
}

// Clone returns a deep copy of the matrix.
func (m *CSR) Clone() *CSR {
	c := &CSR{
		Rows:   m.Rows,
		Cols:   m.Cols,
		RowPtr: append([]int(nil), m.RowPtr...),
		Col:    append([]int(nil), m.Col...),
		Val:    append([]float64(nil), m.Val...),
	}
	return c
}

// rowDot accumulates one row's product in stored-entry order: sub-slicing
// the row lets the compiler drop the bounds checks on vals (its length is
// pinned to cols'), leaving only the unavoidable gather x[c]. Every
// one-column product (MulVec, MulVecAdd, MulMatScatter at k = 1) funnels
// through this one accumulator so they are all bit-identical per row by
// construction.
func rowDot(cols []int, vals []float64, x []float64) float64 {
	vals = vals[:len(cols)]
	var s float64
	for k, c := range cols {
		s += vals[k] * x[c]
	}
	return s
}

// MulVec computes y = A x. len(x) must equal Cols and len(y) must equal Rows.
func (m *CSR) MulVec(y, x []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic("sparse: MulVec dimension mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		y[i] = rowDot(m.Col[lo:hi], m.Val[lo:hi], x)
	}
}

// MulVecAdd computes y += A x.
func (m *CSR) MulVecAdd(y, x []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic("sparse: MulVecAdd dimension mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		y[i] += rowDot(m.Col[lo:hi], m.Val[lo:hi], x)
	}
}

// Diag returns a copy of the main diagonal (zero where no entry is stored).
// It panics for non-square matrices.
func (m *CSR) Diag() []float64 {
	if m.Rows != m.Cols {
		panic("sparse: Diag of non-square matrix")
	}
	d := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		d[i] = m.At(i, i)
	}
	return d
}

// Transpose returns the transpose of the matrix as a new CSR.
func (m *CSR) Transpose() *CSR {
	t := &CSR{
		Rows:   m.Cols,
		Cols:   m.Rows,
		RowPtr: make([]int, m.Cols+1),
		Col:    make([]int, m.NNZ()),
		Val:    make([]float64, m.NNZ()),
	}
	for _, j := range m.Col {
		t.RowPtr[j+1]++
	}
	for i := 0; i < m.Cols; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	next := append([]int(nil), t.RowPtr[:m.Cols]...)
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := m.Col[k]
			t.Col[next[j]] = i
			t.Val[next[j]] = m.Val[k]
			next[j]++
		}
	}
	return t
}

// IsSymmetric reports whether the matrix is numerically symmetric to within
// absolute tolerance tol on every stored entry (and its mirror).
func (m *CSR) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := m.Col[k]
			if math.Abs(m.Val[k]-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// Bandwidth returns the maximum |i-j| over all stored entries, i.e. the
// half-bandwidth of the matrix pattern. The paper's Sec. 5 conditions are
// phrased in terms of how the nonzeros cluster around the diagonal.
func (m *CSR) Bandwidth() int {
	bw := 0
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			d := m.Col[k] - i
			if d < 0 {
				d = -d
			}
			if d > bw {
				bw = d
			}
		}
	}
	return bw
}

// Permute returns P A P^T for the permutation perm (new index -> old index):
// the symmetric reordering that preserves SPD-ness.
func (m *CSR) Permute(perm []int) *CSR {
	if len(perm) != m.Rows || m.Rows != m.Cols {
		panic("sparse: Permute needs a full permutation of a square matrix")
	}
	inv := make([]int, len(perm))
	for newI, oldI := range perm {
		inv[oldI] = newI
	}
	coo := NewCOO(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		for t, j := range cols {
			coo.Add(inv[i], inv[j], vals[t])
		}
	}
	return coo.ToCSR()
}

// RowBlock returns rows [lo, hi) of the matrix as a view whose column
// indices remain global (width Cols): the per-rank static block A_{Ii, I} of
// the block-row distribution. Only the rebased RowPtr is allocated; Col and
// Val are sub-slices of m's storage (capacity-clipped, so an append cannot
// reach the parent's later rows), shared and read-only — Clone the view to
// modify it.
func (m *CSR) RowBlock(lo, hi int) *CSR {
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("sparse: RowBlock [%d,%d) out of range", lo, hi))
	}
	s, e := m.RowPtr[lo], m.RowPtr[hi]
	b := &CSR{
		Rows:   hi - lo,
		Cols:   m.Cols,
		RowPtr: make([]int, hi-lo+1),
		Col:    m.Col[s:e:e],
		Val:    m.Val[s:e:e],
	}
	for i := lo; i <= hi; i++ {
		b.RowPtr[i-lo] = m.RowPtr[i] - s
	}
	return b
}

// Submatrix extracts A[rows, cols] with both index sets given as sorted
// distinct global indices; the result is a compressed (len(rows) x len(cols))
// CSR with renumbered columns: the paper's A_{If, If} selection, which the
// tests' rebuilt reconstruction subsystems are made of.
func (m *CSR) Submatrix(rows, cols []int) *CSR {
	colPos := make(map[int]int, len(cols))
	for p, c := range cols {
		colPos[c] = p
	}
	sub := &CSR{
		Rows:   len(rows),
		Cols:   len(cols),
		RowPtr: make([]int, len(rows)+1),
	}
	for ri, i := range rows {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if p, ok := colPos[m.Col[k]]; ok {
				sub.Col = append(sub.Col, p)
				sub.Val = append(sub.Val, m.Val[k])
			}
		}
		sub.RowPtr[ri+1] = len(sub.Col)
	}
	return sub
}

// ToDense returns the matrix as a dense row-major n*m slice (rows*Cols).
// Intended for tests and tiny reconstruction blocks only.
func (m *CSR) ToDense() []float64 {
	d := make([]float64, m.Rows*m.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			d[i*m.Cols+m.Col[k]] = m.Val[k]
		}
	}
	return d
}

// CheckValid verifies structural invariants (monotone RowPtr, sorted strictly
// increasing column indices within rows, indices within bounds) and returns a
// descriptive error if any is violated.
func (m *CSR) CheckValid() error {
	if len(m.RowPtr) != m.Rows+1 {
		return fmt.Errorf("sparse: RowPtr length %d, want %d", len(m.RowPtr), m.Rows+1)
	}
	if m.RowPtr[0] != 0 {
		return fmt.Errorf("sparse: RowPtr[0] = %d, want 0", m.RowPtr[0])
	}
	if m.RowPtr[m.Rows] != len(m.Col) || len(m.Col) != len(m.Val) {
		return fmt.Errorf("sparse: storage lengths inconsistent")
	}
	for i := 0; i < m.Rows; i++ {
		if m.RowPtr[i] > m.RowPtr[i+1] {
			return fmt.Errorf("sparse: RowPtr not monotone at row %d", i)
		}
		prev := -1
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := m.Col[k]
			if j < 0 || j >= m.Cols {
				return fmt.Errorf("sparse: column %d out of range in row %d", j, i)
			}
			if j <= prev {
				return fmt.Errorf("sparse: columns not strictly increasing in row %d", i)
			}
			prev = j
		}
	}
	return nil
}
