package localsolve

import (
	"math"
	"sync"

	"repro/internal/sparse"
	"repro/internal/xerr"
)

// ILU0 is an incomplete LU factorisation with zero fill-in: L (unit lower)
// and U share the sparsity pattern of A. This is the approximate local
// solver the paper uses for the reconstruction subsystem (Sec. 6).
type ILU0 struct {
	n      int
	rowPtr []int
	col    []int
	val    []float64
	diag   []int // position of the diagonal entry in each row
	// levels is the one-column sweeps' row order, built on the first Solve
	// (see leveled); nil where the level rules refuse the factor.
	levelsOnce sync.Once
	levels     *levelSchedule
}

// NewILU0 factorises the square CSR matrix a in IKJ order. Zero or missing
// pivots are replaced by a small multiple of the matrix norm to keep the
// preconditioner defined (standard practice for incomplete factorisations).
//
// The factor has a's pattern, so it shares a.RowPtr and a.Col with a, read
// only, and copies the values alone: the caller must not modify a's index
// arrays while the factor is in use.
func NewILU0(a *sparse.CSR) (*ILU0, error) {
	if a.Rows != a.Cols {
		return nil, xerr.New(xerr.InvalidArgument, "localsolve: ILU0 needs a square matrix")
	}
	n, nnz := a.Rows, len(a.Val)
	// val carries one dummy slot past the factor's values: a column absent
	// from the current row maps there, so the row update below runs without
	// a data-dependent branch and touches the real slots exactly as a
	// presence test would. The factor keeps the first nnz values.
	val := make([]float64, nnz+1)
	copy(val, a.Val)
	f := &ILU0{
		n:      n,
		rowPtr: a.RowPtr,
		col:    a.Col,
		val:    val[:nnz:nnz],
		diag:   make([]int, n),
	}
	var maxAbs float64
	for _, v := range f.val {
		if av := math.Abs(v); av > maxAbs {
			maxAbs = av
		}
	}
	eps := 1e-12 * (maxAbs + 1)
	// Locate diagonals; insert conceptual zero pivots as eps.
	for i := 0; i < n; i++ {
		f.diag[i] = -1
		for k := f.rowPtr[i]; k < f.rowPtr[i+1]; k++ {
			if f.col[k] == i {
				f.diag[i] = k
				break
			}
		}
		if f.diag[i] < 0 {
			return nil, xerr.Newf(xerr.InvalidArgument, "localsolve: ILU0 row %d has no diagonal entry", i)
		}
	}
	// colPos[j] caches the position of column j within the current row, or
	// the dummy slot nnz when row i has no column j.
	colPos := make([]int, n)
	for j := range colPos {
		colPos[j] = nnz
	}
	for i := 0; i < n; i++ {
		for k := f.rowPtr[i]; k < f.rowPtr[i+1]; k++ {
			colPos[f.col[k]] = k
		}
		for k := f.rowPtr[i]; k < f.rowPtr[i+1]; k++ {
			j := f.col[k]
			if j >= i {
				break // columns sorted: L part exhausted
			}
			piv := val[f.diag[j]]
			if math.Abs(piv) < eps {
				piv = eps
			}
			lij := val[k] / piv
			val[k] = lij
			// Update the remainder of row i with row j of U.
			for kk := f.diag[j] + 1; kk < f.rowPtr[j+1]; kk++ {
				val[colPos[f.col[kk]]] -= lij * val[kk]
			}
		}
		if math.Abs(val[f.diag[i]]) < eps {
			val[f.diag[i]] = eps
		}
		for k := f.rowPtr[i]; k < f.rowPtr[i+1]; k++ {
			colPos[f.col[k]] = nnz
		}
	}
	return f, nil
}

// Solve computes z such that (LU) z = r: a forward substitution with the
// unit lower factor followed by a backward substitution with U. z may alias
// r. Where the level rules accept the factor (see leveled), the sweeps walk
// its level schedule; z is bit for bit the natural sweep's either way.
func (f *ILU0) Solve(z, r []float64) {
	if len(z) != f.n || len(r) != f.n {
		panic("localsolve: ILU0.Solve dimension mismatch")
	}
	if s := f.leveled(); s != nil {
		f.solveLevels(s, z, r)
		return
	}
	f.solveNatural(z, r)
}

// solveNatural is Solve in row order: each row waits on the row before it.
func (f *ILU0) solveNatural(z, r []float64) {
	n := f.n
	// The index arrays are pinned to their known lengths and each row is
	// sliced once, so the sweeps pay no bounds check on the factor (vals'
	// length is pinned to cols'), only the gather z[c] — the same operations
	// in the same order as indexing val[k], col[k] entry by entry.
	rowPtr, diag := f.rowPtr[:n+1], f.diag[:n]
	col := f.col[:len(f.col):len(f.col)]
	val := f.val[:len(col):len(col)]
	// L y = r (unit diagonal)
	for i := 0; i < n; i++ {
		lo, d := rowPtr[i], diag[i]
		cols := col[lo:d]
		vals := val[lo:d][:len(cols)]
		s := r[i]
		for k, c := range cols {
			s -= vals[k] * z[c]
		}
		z[i] = s
	}
	// U x = y
	for i := n - 1; i >= 0; i-- {
		d, hi := diag[i], rowPtr[i+1]
		cols := col[d+1 : hi]
		vals := val[d+1 : hi][:len(cols)]
		s := z[i]
		for k, c := range cols {
			s -= vals[k] * z[c]
		}
		z[i] = s / val[d]
	}
}

// SolveK computes z[c] such that (LU) z[c] = r[c] for every column in ONE
// sweep over the factor: the rowPtr/diag/col indices and the factor values
// are loaded once per stored entry and applied to all k columns, where k
// back-to-back Solve calls would re-walk the index structure k times. The
// per-column arithmetic is the exact operation sequence of Solve — for each
// column c, s accumulates the same products in the same stored-entry order
// — so column c of SolveK is bitwise identical to Solve(z[c], r[c]). z[c]
// may alias r[c]. work is the caller's scratch of at least n·k floats, which
// the SIMD sweep uses as its k-strided working block: the factor is shared
// by concurrent solves, the block is not.
func (f *ILU0) SolveK(z, r [][]float64, work []float64) {
	k := len(z)
	if k != len(r) {
		panic("localsolve: ILU0.SolveK column count mismatch")
	}
	n := f.n
	for c := 0; c < k; c++ {
		if len(z[c]) != n || len(r[c]) != n {
			panic("localsolve: ILU0.SolveK dimension mismatch")
		}
	}
	if len(work) < n*k {
		panic("localsolve: ILU0.SolveK work block too short")
	}
	// The SIMD sweep, where there is one, takes the columns in fours; the
	// rest go through the Go sweep.
	c := 0
	if iluLanes != nil && k >= 4 {
		c = k &^ 3
		iluLanes(f, z[:c], r[:c], work[:n*c])
	}
	f.solveGo(z[c:], r[c:])
}

// solveGo is SolveK in Go, the reference of the SIMD sweep: the columns go
// through in tiles of eight, then one of four, with the slice headers
// hoisted into locals and the running sums in registers, and the remainder
// through the single-column sweep. Tiling only regroups independent columns
// — each column's arithmetic is untouched.
func (f *ILU0) solveGo(z, r [][]float64) {
	k := len(z)
	c := 0
	for ; c+8 <= k; c += 8 {
		f.solve8(z[c:c+8], r[c:c+8])
	}
	if c+4 <= k {
		f.solve4(z[c:c+4], r[c:c+4])
		c += 4
	}
	for ; c < k; c++ {
		f.Solve(z[c], r[c])
	}
}

// iluLanes, when set, is the SIMD sweep behind SolveK for a multiple of four
// columns: the forward sweep gathers row i of every r[c] into row i of the
// n×k working block w (w[i*k+c]) and runs there, the backward sweep runs in
// place in w and scatters each finished row to the z[c]. Each lane is
// Solve's scalar sequence for its column — a multiply and a subtraction per
// entry, each rounded, in stored order, then one division by the pivot —
// so it matches Solve to the bit. It does no bounds checks. Set at init on
// CPUs that have it (ilu_amd64.go); nil elsewhere.
var iluLanes func(f *ILU0, z, r [][]float64, w []float64)

// solve8 is the width-8 fused sweep behind SolveK: one traversal of the
// factor's rows serves the eight columns of z and r. Each row's entries are
// walked twice, four columns per walk (rowSub4): the row is in L1 by then,
// and an inner loop with four column bases live fits the registers, where
// one with eight spills them on every entry.
func (f *ILU0) solve8(z, r [][]float64) {
	n := f.n
	z0, z1, z2, z3 := z[0][:n], z[1][:n], z[2][:n], z[3][:n]
	z4, z5, z6, z7 := z[4][:n], z[5][:n], z[6][:n], z[7][:n]
	r0, r1, r2, r3 := r[0][:n], r[1][:n], r[2][:n], r[3][:n]
	r4, r5, r6, r7 := r[4][:n], r[5][:n], r[6][:n], r[7][:n]
	// Pinned index arrays and once-sliced rows, exactly as in Solve.
	rowPtr, diag := f.rowPtr[:n+1], f.diag[:n]
	col := f.col[:len(f.col):len(f.col)]
	val := f.val[:len(col):len(col)]
	// L y = r (unit diagonal)
	for i := 0; i < n; i++ {
		lo, d := rowPtr[i], diag[i]
		cols, vals := col[lo:d], val[lo:d]
		z0[i], z1[i], z2[i], z3[i] = rowSub4(cols, vals, z0, z1, z2, z3, r0[i], r1[i], r2[i], r3[i])
		z4[i], z5[i], z6[i], z7[i] = rowSub4(cols, vals, z4, z5, z6, z7, r4[i], r5[i], r6[i], r7[i])
	}
	// U x = y
	for i := n - 1; i >= 0; i-- {
		d, hi := diag[i], rowPtr[i+1]
		cols, vals := col[d+1:hi], val[d+1:hi]
		dv := val[d]
		s0, s1, s2, s3 := rowSub4(cols, vals, z0, z1, z2, z3, z0[i], z1[i], z2[i], z3[i])
		z0[i], z1[i], z2[i], z3[i] = s0/dv, s1/dv, s2/dv, s3/dv
		s4, s5, s6, s7 := rowSub4(cols, vals, z4, z5, z6, z7, z4[i], z5[i], z6[i], z7[i])
		z4[i], z5[i], z6[i], z7[i] = s4/dv, s5/dv, s6/dv, s7/dv
	}
}

// solve4 is solve8 for a tile of four columns.
func (f *ILU0) solve4(z, r [][]float64) {
	n := f.n
	z0, z1, z2, z3 := z[0][:n], z[1][:n], z[2][:n], z[3][:n]
	r0, r1, r2, r3 := r[0][:n], r[1][:n], r[2][:n], r[3][:n]
	rowPtr, diag := f.rowPtr[:n+1], f.diag[:n]
	col := f.col[:len(f.col):len(f.col)]
	val := f.val[:len(col):len(col)]
	for i := 0; i < n; i++ {
		lo, d := rowPtr[i], diag[i]
		z0[i], z1[i], z2[i], z3[i] = rowSub4(col[lo:d], val[lo:d], z0, z1, z2, z3, r0[i], r1[i], r2[i], r3[i])
	}
	for i := n - 1; i >= 0; i-- {
		d, hi := diag[i], rowPtr[i+1]
		s0, s1, s2, s3 := rowSub4(col[d+1:hi], val[d+1:hi], z0, z1, z2, z3, z0[i], z1[i], z2[i], z3[i])
		dv := val[d]
		z0[i], z1[i], z2[i], z3[i] = s0/dv, s1/dv, s2/dv, s3/dv
	}
}

// rowSub4 is one row of a four-column sweep: each s_c loses
// vals[p]*z_c[cols[p]] for every entry p in stored order, exactly Solve's
// inner loop per column. The columns are pinned to z0's length, so one
// bounds check covers the four gathers of an entry.
func rowSub4(cols []int, vals []float64, z0, z1, z2, z3 []float64, s0, s1, s2, s3 float64) (float64, float64, float64, float64) {
	vals = vals[:len(cols)]
	z1, z2, z3 = z1[:len(z0)], z2[:len(z0)], z3[:len(z0)]
	for p, j := range cols {
		v := vals[p]
		s0 -= v * z0[j]
		s1 -= v * z1[j]
		s2 -= v * z2[j]
		s3 -= v * z3[j]
	}
	return s0, s1, s2, s3
}

// Multiply computes y = L U x, the action of the preconditioner M = LU
// itself (needed by the ESR reconstruction variant that applies M rather
// than M^{-1}).
func (f *ILU0) Multiply(y, x []float64) {
	n := f.n
	if len(y) != n || len(x) != n {
		panic("localsolve: ILU0.Multiply dimension mismatch")
	}
	// u = U x
	u := make([]float64, n)
	for i := 0; i < n; i++ {
		var s float64
		for k := f.diag[i]; k < f.rowPtr[i+1]; k++ {
			s += f.val[k] * x[f.col[k]]
		}
		u[i] = s
	}
	// y = L u (unit diagonal)
	for i := 0; i < n; i++ {
		s := u[i]
		for k := f.rowPtr[i]; k < f.diag[i]; k++ {
			s += f.val[k] * u[f.col[k]]
		}
		y[i] = s
	}
}

// IC0 is an incomplete Cholesky factorisation with zero fill-in of an SPD
// matrix: A ~= L L^T with L restricted to the lower-triangular pattern of A.
// Used as the split preconditioner M = L L^T for the SPCG variant.
type IC0 struct {
	n      int
	rowPtr []int // lower-triangle CSR (including diagonal)
	col    []int
	val    []float64
	diag   []int
}

// NewIC0 factorises the SPD CSR matrix a. Non-positive pivots are lifted to
// a small positive value (shifted IC), keeping the factor usable as a
// preconditioner.
func NewIC0(a *sparse.CSR) (*IC0, error) {
	if a.Rows != a.Cols {
		return nil, xerr.New(xerr.InvalidArgument, "localsolve: IC0 needs a square matrix")
	}
	n := a.Rows
	f := &IC0{n: n, rowPtr: make([]int, n+1), diag: make([]int, n)}
	// Extract the lower triangle pattern (columns sorted).
	for i := 0; i < n; i++ {
		cols, vals := a.Row(i)
		hasDiag := false
		for t, j := range cols {
			if j > i {
				break
			}
			f.col = append(f.col, j)
			f.val = append(f.val, vals[t])
			if j == i {
				hasDiag = true
			}
		}
		if !hasDiag {
			return nil, xerr.Newf(xerr.InvalidArgument, "localsolve: IC0 row %d has no diagonal entry", i)
		}
		f.rowPtr[i+1] = len(f.col)
		f.diag[i] = len(f.col) - 1
	}
	var maxAbs float64
	for _, v := range f.val {
		if av := math.Abs(v); av > maxAbs {
			maxAbs = av
		}
	}
	eps := 1e-10 * (maxAbs + 1)
	// Row-oriented up-looking IC(0).
	colStart := make([]int, n) // scratch: position of column j in row i
	for j := range colStart {
		colStart[j] = -1
	}
	for i := 0; i < n; i++ {
		for k := f.rowPtr[i]; k < f.rowPtr[i+1]; k++ {
			colStart[f.col[k]] = k
		}
		for k := f.rowPtr[i]; k < f.rowPtr[i+1]; k++ {
			j := f.col[k]
			// s = a_ij - sum_{t<j} L_it L_jt over the shared pattern.
			s := f.val[k]
			// iterate over row j's entries with column < j
			for kj := f.rowPtr[j]; kj < f.diag[j]; kj++ {
				t := f.col[kj]
				if p := colStart[t]; p >= 0 && p < k {
					s -= f.val[p] * f.val[kj]
				}
			}
			if j < i {
				d := f.val[f.diag[j]]
				if math.Abs(d) < eps {
					d = eps
				}
				f.val[k] = s / d
			} else { // j == i
				if s <= eps {
					s = eps
				}
				f.val[k] = math.Sqrt(s)
			}
		}
		for k := f.rowPtr[i]; k < f.rowPtr[i+1]; k++ {
			colStart[f.col[k]] = -1
		}
	}
	return f, nil
}

// SolveL solves L y = b by forward substitution.
func (f *IC0) SolveL(y, b []float64) {
	for i := 0; i < f.n; i++ {
		s := b[i]
		for k := f.rowPtr[i]; k < f.diag[i]; k++ {
			s -= f.val[k] * y[f.col[k]]
		}
		y[i] = s / f.val[f.diag[i]]
	}
}

// SolveLT solves L^T x = b by backward substitution.
func (f *IC0) SolveLT(x, b []float64) {
	n := f.n
	copy(x, b)
	for i := n - 1; i >= 0; i-- {
		x[i] /= f.val[f.diag[i]]
		xi := x[i]
		for k := f.rowPtr[i]; k < f.diag[i]; k++ {
			x[f.col[k]] -= f.val[k] * xi
		}
	}
}

// Solve computes z = (L L^T)^{-1} r in place in z, allocating nothing: both
// sweeps are alias-safe, so L y = r lands in z and L^T z = y overwrites it.
// z may alias r.
func (f *IC0) Solve(z, r []float64) {
	f.SolveL(z, r)
	f.SolveLT(z, z)
}

// MulL computes y = L x.
func (f *IC0) MulL(y, x []float64) {
	for i := 0; i < f.n; i++ {
		var s float64
		for k := f.rowPtr[i]; k <= f.diag[i]; k++ {
			s += f.val[k] * x[f.col[k]]
		}
		y[i] = s
	}
}

// MulLT computes y = L^T x.
func (f *IC0) MulLT(y, x []float64) {
	for i := range y {
		y[i] = 0
	}
	for i := 0; i < f.n; i++ {
		xi := x[i]
		for k := f.rowPtr[i]; k <= f.diag[i]; k++ {
			y[f.col[k]] += f.val[k] * xi
		}
	}
}

// Multiply computes y = L L^T x (the action of M itself).
func (f *IC0) Multiply(y, x []float64) {
	u := make([]float64, f.n)
	f.MulLT(u, x)
	f.MulL(y, u)
}
