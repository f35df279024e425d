package sparse

// RowSplit is an interior/boundary partition of a row block's rows in the
// owning rank's local column space (own columns first, ghost columns after
// them): Interior holds the rows whose stored columns all lie in the rank's
// own block, Boundary the rows that touch at least one ghost column. Each row
// keeps its stored entries in their original order, so computing a row from
// either side is bit-identical to computing it from the source block.
// IntRows/BndRows map sub-matrix rows back to source rows; together they
// cover every source row exactly once.
//
// This is the structural half of the communication-hiding SpMV (Levonyak et
// al.): interior rows need no ghost data and can be computed while the halo
// exchange is still in flight; only the boundary rows wait for the wire.
type RowSplit struct {
	Interior, Boundary *CSR
	// IntRows and BndRows are the source row indices of the sub-matrices'
	// rows, each ascending.
	IntRows, BndRows []int
}

// SplitLocalize builds, straight from a row block a with global column
// indices, the column-localised interior/boundary split of the rank that owns
// columns [lo, hi): an own column c becomes c-lo, an exterior column becomes
// hi-lo plus its position in ghost, which must list every exterior column a
// stores, ascending. A row with no exterior column is interior (an empty row
// too); the rest are boundary. Both sub-matrices are hi-lo+len(ghost) wide.
//
// The split copies every entry of a and keeps no reference to a's storage:
// it is the only copy of the rows its owner needs. One counting pass sizes
// every array exactly and one fill pass writes them; a localised copy of a as
// a whole is never materialised.
func SplitLocalize(a *CSR, lo, hi int, ghost []int) *RowSplit {
	bs := hi - lo
	interior := func(cols []int) bool {
		for _, c := range cols {
			if c < lo || c >= hi {
				return false
			}
		}
		return true
	}
	var nInt, nnzInt int
	for i := 0; i < a.Rows; i++ {
		if cols, _ := a.Row(i); interior(cols) {
			nInt++
			nnzInt += len(cols)
		}
	}
	sub := func(rows, nnz int) *CSR {
		return &CSR{Cols: bs + len(ghost), RowPtr: make([]int, 1, rows+1), Col: make([]int, nnz), Val: make([]float64, nnz)}
	}
	s := &RowSplit{
		Interior: sub(nInt, nnzInt),
		Boundary: sub(a.Rows-nInt, a.RowPtr[a.Rows]-nnzInt),
		IntRows:  make([]int, 0, nInt),
		BndRows:  make([]int, 0, a.Rows-nInt),
	}
	// Transient global-column -> local-slot table for the exterior columns.
	slot := make([]int32, a.Cols)
	for g, c := range ghost {
		slot[c] = int32(bs + g)
	}
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.Row(i)
		dst := s.Boundary
		if interior(cols) {
			dst = s.Interior
			s.IntRows = append(s.IntRows, i)
		} else {
			s.BndRows = append(s.BndRows, i)
		}
		at := dst.RowPtr[dst.Rows]
		dcols := dst.Col[at : at+len(cols)]
		copy(dst.Val[at:], vals)
		for t, c := range cols {
			if c >= lo && c < hi {
				dcols[t] = c - lo
			} else {
				dcols[t] = int(slot[c])
			}
		}
		dst.Rows++
		dst.RowPtr = append(dst.RowPtr, at+len(cols))
	}
	return s
}
