package distmat

import (
	"fmt"

	"repro/internal/sparse"
)

// Restrict assembles the principal submatrix A_{If,If} of a distributed
// matrix over the blocks of a set of ranks If: the operator of the
// reconstruction x-system (paper Alg. 2 line 8) on the replacement that
// solves it for the whole failed set. The members' rows sit back to back in
// ascending rank order, and each row keeps, in stored order, only its entries
// whose column lies in a member's block, renumbered into that layout: one
// pass over the members' localised splits, with no sort.
//
// A row of its product is bit for bit that member's own SpMV row with every
// non-member ghost slot read as zero: the dropped terms are each a ±0, and a
// stored-order sum that starts at +0 never becomes -0, so adding them moves
// no bit.
//
// The matrices may be per-solve forks or the session templates they were
// forked from. Restrict only reads them.
func Restrict(blocks []*Matrix) (*sparse.CSR, error) {
	if len(blocks) == 0 {
		return nil, fmt.Errorf("distmat: Restrict needs at least one block")
	}
	off := make([]int, len(blocks)+1)
	nnz := 0
	for t, m := range blocks {
		if t > 0 && (m.Pos <= blocks[t-1].Pos || !m.P.Equal(blocks[0].P)) {
			return nil, fmt.Errorf("distmat: Restrict: block %d (rank %d) is out of order or on another partition", t, m.Pos)
		}
		off[t+1] = off[t] + m.blockSize()
		nnz += m.split.Interior.NNZ() + m.split.Boundary.NNZ()
	}
	n := off[len(blocks)]
	rowPtr, col, val, k := make([]int, 1, n+1), make([]int, nnz), make([]float64, nnz), 0
	for t, m := range blocks {
		// at[c] is where local column c of member t lands, -1 dropping it:
		// its own columns, then its ghost slots, those of another member
		// through the halo plan.
		bs := m.blockSize()
		at := make([]int, bs+len(m.ghost))
		for c := range at {
			at[c] = -1
			if c < bs {
				at[c] = off[t] + c
			}
		}
		for u, f := range blocks {
			if u == t {
				continue
			}
			slot, _ := m.GhostSpan(f.Pos)
			flo, _ := m.P.Range(f.Pos)
			for i, g := range m.Plan.RecvFrom[f.Pos] {
				at[bs+slot+i] = off[u] + g - flo
			}
		}
		m.eachRow(func(_ int, cols []int, vals []float64) {
			vals = vals[:len(cols)]
			for i, c := range cols {
				if j := at[c]; j >= 0 {
					col[k], val[k] = j, vals[i]
					k++
				}
			}
			rowPtr = append(rowPtr, k)
		})
	}
	return &sparse.CSR{Rows: n, Cols: n, RowPtr: rowPtr, Col: col[:k], Val: val[:k]}, nil
}
