package sparse

import (
	"repro/internal/vec"
)

// SpMM: CSR x dense-block products for batched multi-RHS solves. The dense
// block X is row-major with k consecutive values per matrix column
// (X[c*k+j] is column j's value at matrix column c), so one traversal of
// the sparse matrix amortizes over k right-hand sides and the k values a
// stored entry touches are contiguous in memory.
//
// Determinism contract: rowDotK accumulates each output column in exactly
// the stored-entry order rowDot uses, with the same multiply-add sequence,
// so column j of every MulMat* result is bitwise identical to the
// corresponding MulVec* applied to column j alone.

// rowDotK accumulates row.X into out[0:k] (k = len(out)), visiting the
// stored entries in order. Per column this is the same operation sequence
// as rowDot: out[j] starts at 0 and gains vals[t]*x[cols[t]*k+j] for each
// stored entry t in order.
func rowDotK(cols []int, vals []float64, x []float64, out []float64) {
	k := len(out)
	for j := range out {
		out[j] = 0
	}
	vals = vals[:len(cols)] // one bounds check, not one per entry
	for t, c := range cols {
		v := vals[t]
		xr := x[c*k : c*k+k]
		for j, xv := range xr {
			out[j] += v * xv
		}
	}
}

// MulMat computes Y = A X for a row-major dense block of k columns:
// y[i*k+j] = (A x_j)[i]. Each output column is bitwise identical to
// MulVec on the corresponding input column.
func (m *CSR) MulMat(y, x []float64, k int) {
	if k <= 0 || len(x) != m.Cols*k || len(y) != m.Rows*k {
		panic("sparse: MulMat dimension mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		rowDotK(m.Col[lo:hi], m.Val[lo:hi], x, y[i*k:i*k+k])
	}
}

// MulMatScatter computes y[rows[i]*k : rows[i]*k+k] = (A X) row i for the
// compressed matrix — the SpMM analogue of MulVecScatter, scoring each
// sub-matrix row of a RowSplit directly into the full k-strided output.
func (m *CSR) MulMatScatter(y, x []float64, rows []int, k int) {
	if k <= 0 || len(x) != m.Cols*k || len(rows) != m.Rows {
		panic("sparse: MulMatScatter dimension mismatch")
	}
	for i, dst := range rows {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		rowDotK(m.Col[lo:hi], m.Val[lo:hi], x, y[dst*k:dst*k+k])
	}
}

// MulMatScatterPar is MulMatScatter row-chunked across the shared worker
// pool. Rows write disjoint y ranges (rows holds distinct indices), so the
// result is bit-identical to MulMatScatter however the chunks are shared
// out.
func (m *CSR) MulMatScatterPar(y, x []float64, rows []int, k int) {
	if k <= 0 || len(x) != m.Cols*k || len(rows) != m.Rows {
		panic("sparse: MulMatScatterPar dimension mismatch")
	}
	if m.NNZ()*k < parNNZThreshold {
		m.MulMatScatter(y, x, rows, k)
		return
	}
	vec.Parallel(m.Rows, (m.Rows+parRowChunk-1)/parRowChunk, 0, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			rlo, rhi := m.RowPtr[i], m.RowPtr[i+1]
			rowDotK(m.Col[rlo:rhi], m.Val[rlo:rhi], x, y[rows[i]*k:rows[i]*k+k])
		}
	})
}
