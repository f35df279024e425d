package sparse

// SpMM: CSR x dense-block products for batched multi-RHS solves. The dense
// block X is row-major with k consecutive values per matrix column
// (X[c*k+j] is column j's value at matrix column c), so one traversal of
// the sparse matrix amortizes over k right-hand sides and the k values a
// stored entry touches are contiguous in memory.
//
// Determinism contract: rowDotK accumulates each output column in exactly
// the stored-entry order rowDot uses, with the same multiply-add sequence,
// so column j of every MulMat* result is bitwise identical to MulVec
// applied to column j alone.

// rowDotK computes row.X into out[0:k] (k = len(out)). The row is walked
// once per tile of 8 columns, then once for a tile of 4, then once per
// remaining column, with the tile's running sums in registers and each
// output stored once. Tiling only decides which columns share a pass: per
// column this is rowDot's exact operation sequence — a single accumulator
// that starts at 0 and gains vals[t]*x[cols[t]*k+j] for each stored entry t
// in order — unlike splitting one column's sum across several accumulators,
// which would reorder its additions.
func rowDotK(cols []int, vals []float64, x []float64, out []float64) {
	k := len(out)
	vals = vals[:len(cols)] // one bounds check, not one per entry
	// A tile's values are sliced with their capacity capped (x[o:o+8:o+8]):
	// a slice that might have zero capacity makes the compiler mask its
	// pointer, which costs instructions on every entry.
	j := 0
	for ; j+8 <= k; j += 8 {
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for t, c := range cols {
			v := vals[t]
			o := c*k + j
			xr := x[o : o+8 : o+8]
			s0 += v * xr[0]
			s1 += v * xr[1]
			s2 += v * xr[2]
			s3 += v * xr[3]
			s4 += v * xr[4]
			s5 += v * xr[5]
			s6 += v * xr[6]
			s7 += v * xr[7]
		}
		dst := out[j:][:8]
		dst[0], dst[1], dst[2], dst[3], dst[4], dst[5], dst[6], dst[7] = s0, s1, s2, s3, s4, s5, s6, s7
	}
	if j+4 <= k {
		var s0, s1, s2, s3 float64
		for t, c := range cols {
			v := vals[t]
			o := c*k + j
			xr := x[o : o+4 : o+4]
			s0 += v * xr[0]
			s1 += v * xr[1]
			s2 += v * xr[2]
			s3 += v * xr[3]
		}
		dst := out[j:][:4]
		dst[0], dst[1], dst[2], dst[3] = s0, s1, s2, s3
		j += 4
	}
	rowDotFrom(cols, vals, x, out, j)
}

// rowDotFrom is rowDotK's single-column tail: it computes out[j:] one
// column per pass over the row, for the columns no tile covers.
func rowDotFrom(cols []int, vals []float64, x []float64, out []float64, j int) {
	k := len(out)
	vals = vals[:len(cols)]
	for ; j < k; j++ {
		var s float64
		for t, c := range cols {
			s += vals[t] * x[c*k+j]
		}
		out[j] = s
	}
}

// spmmLanes, when set, is the SIMD kernel of the column tiles: it scores the
// rows [lo, hi) over columns [0, k&^3) exactly as rowDotK's 8- and 4-column
// tiles do, one column per vector lane, row i landing at output row rows[i]
// (row i itself when rows is nil). It runs the multiply and the add of
// every product as two separately rounded operations, in stored-entry
// order from a zero sum, so each lane is rowDot's scalar sequence to the
// bit. It does no bounds checks. Set at init on CPUs that have it
// (spmm_amd64.go); nil elsewhere.
var spmmLanes func(y, x []float64, rowPtr, col []int, val []float64, rows []int, k, lo, hi int)

// MulMat computes Y = A X for a row-major dense block of k columns:
// y[i*k+j] = (A x_j)[i]. Each output column is bitwise identical to
// MulVec on the corresponding input column.
func (m *CSR) MulMat(y, x []float64, k int) {
	if k <= 0 || len(x) != m.Cols*k || len(y) != m.Rows*k {
		panic("sparse: MulMat dimension mismatch")
	}
	m.scatterRows(y, x, nil, k, 0, m.Rows)
}

// MulMatScatter computes y[rows[i]*k : rows[i]*k+k] = (A X) row i for the
// compressed matrix: row i of m is accumulated in stored order and written
// to the source row rows[i] (row i itself when rows is nil). It is the
// kernel behind both halves of a RowSplit, scoring each sub-matrix row
// directly into the full k-strided output; at k = 1 that output is a plain
// vector, y[rows[i]] = (A x)[i].
// From fanOutNNZ stored entries times columns on, the rows are shared out
// across cores (fanout.go); rows holds distinct indices, so every row still
// lands once and the result does not depend on the split.
func (m *CSR) MulMatScatter(y, x []float64, rows []int, k int) {
	if k <= 0 || len(x) != m.Cols*k || rows != nil && len(rows) != m.Rows || rows == nil && len(y) != m.Rows*k {
		panic("sparse: MulMatScatter dimension mismatch")
	}
	if m.NNZ()*k < fanOutNNZ {
		m.scatterRows(y, x, rows, k, 0, m.Rows)
		return
	}
	m.fanOut(y, x, rows, k)
}

// scatterRows scores the sub-matrix rows [lo, hi) of a MulMatScatter, row i
// landing at output row rows[i] (row i itself when rows is nil, MulMat's
// case). The kernel is chosen once: a single column goes through rowDot,
// which skips the column tiling and its k-strided indexing; wider blocks go
// through the SIMD kernel where there is one, rowDotK where there is not.
// All of them accumulate a column in the same order, so the choice never
// changes a bit.
func (m *CSR) scatterRows(y, x []float64, rows []int, k, lo, hi int) {
	out := func(i int) int {
		if rows == nil {
			return i
		}
		return rows[i]
	}
	if k == 1 {
		for i := lo; i < hi; i++ {
			rlo, rhi := m.RowPtr[i], m.RowPtr[i+1]
			y[out(i)] = rowDot(m.Col[rlo:rhi], m.Val[rlo:rhi], x)
		}
		return
	}
	if spmmLanes == nil || k < 4 {
		for i := lo; i < hi; i++ {
			rlo, rhi, d := m.RowPtr[i], m.RowPtr[i+1], out(i)*k
			rowDotK(m.Col[rlo:rhi], m.Val[rlo:rhi], x, y[d:d+k])
		}
		return
	}
	// The kernel writes unchecked: every output row must fit in y.
	for i := lo; i < hi; i++ {
		if d := out(i); d < 0 || (d+1)*k > len(y) {
			panic("sparse: MulMatScatter output row out of range")
		}
	}
	spmmLanes(y, x, m.RowPtr, m.Col, m.Val, rows, k, lo, hi)
	if j := k &^ 3; j < k {
		for i := lo; i < hi; i++ {
			rlo, rhi, d := m.RowPtr[i], m.RowPtr[i+1], out(i)*k
			rowDotFrom(m.Col[rlo:rhi], m.Val[rlo:rhi], x, y[d:d+k], j)
		}
	}
}
