package distmat

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/commplan"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// Matrix is the local part of a block-row distributed sparse matrix together
// with its communication structure. Its one copy of the static row block (the
// paper's A_{Ii, I}, reconstructible from reliable storage) is split: the
// rows column-localised and divided into interior and boundary for the SpMV
// kernels. Everything else that reads the rows — OwnBlock, Diag, GhostProduct
// — reads them there.
type Matrix struct {
	// P is the row/vector partition over the ranks.
	P partition.Partition
	// Pos is the owning rank.
	Pos int
	// Plan is the SpMV halo plan (S_ik / RecvFrom sets).
	Plan *commplan.HaloPlan
	// Red is the redundancy protocol state; nil when phi = 0.
	Red *commplan.Redundancy
	// Ret retains the two most recent SpMV input generations; nil when the
	// matrix is not resilience-enabled. Its index is recvLists, shared by
	// every fork and block width.
	Ret *commplan.Retention
	// Holders is the static holder table of the own block, over sendLists
	// and shared by every fork; nil when the matrix is not
	// resilience-enabled.
	Holders *commplan.HolderTable

	// ghost is Plan.GhostIndices(): the sorted external global indices the
	// SpMV reads. Ghost i lives in local column (own block size) + i.
	ghost     []int
	sendLists [][]int // merged halo+redundancy indices per destination
	recvLists [][]int // merged indices received per source
	scratch   spmvScratch
	tagBase   int

	// Static kernel plans, precomputed once after the symbolic phase so the
	// per-iteration SpMV runs without a single map lookup (they used to
	// dominate its profile). All are immutable after construction and shared
	// by Forks.

	// split is the column-localised row block in two parts: interior rows
	// read only own-block columns and compute while the halo receives are
	// still in flight (communication-hiding SpMV); boundary rows wait.
	split *sparse.RowSplit
	// sendPlan[k] gathers the payload for destination k: sendLists[k] from
	// the own block (src a block-relative index, dst a payload position).
	sendPlan []copyList
	// recvPlan[k] scatters an incoming payload from source k into the input
	// buffer (src
	// a payload position, dst a ghost slot). Payload positions that carry
	// pure redundancy (not needed by this rank's SpMV) are absent.
	recvPlan []copyList

	// obs, when non-nil, receives the per-phase wall-clock split of every
	// product (see SetMatVecObserver). Purely observational.
	obs func(MatVecTimings)
}

// spmvScratch is a Matrix's SpMV scratch (see MatMat), lazily sized and
// never shared between forks: the k-strided input over the own block and the
// ghost slots at width xWidth, the k-strided output of a product over k > 1
// columns, the staging of retained payloads, and the column headers a
// product over k > 1 columns interleaves from and de-interleaves to.
type spmvScratch struct {
	x      []float64
	xWidth int
	y      []float64
	recv   [][]float64
	cols   [][]float64
}

// matrixTagStride spaces the SpMV message tags of different matrices
// sharing an Env.
const matrixTagStride = 64

// NewMatrix builds the distributed matrix for this rank from its static row
// block: the distributed symbolic phase (commplan.BuildSymbolic) derives the
// halo plan, like PETSc's scatter construction, and for phi > 0 the ESR
// redundancy protocol of the paper's Eqns. 5 and 6 follows. rows is read
// during construction only: the matrix keeps no reference to it, so it may
// be a view of the caller's matrix (sparse.CSR.RowBlock) that the caller
// later changes.
//
// ctx separates the SpMV message tags of matrices living in the same Env.
func NewMatrix(e *Env, rows *sparse.CSR, p partition.Partition, phi, ctx int) (*Matrix, error) {
	if p.Ranks() != e.Size() {
		return nil, fmt.Errorf("distmat: partition ranks %d != env size %d", p.Ranks(), e.Size())
	}
	if rows.Rows != p.Size(e.Pos) || rows.Cols != p.N() {
		return nil, fmt.Errorf("distmat: row block %dx%d does not match partition (want %dx%d)",
			rows.Rows, rows.Cols, p.Size(e.Pos), p.N())
	}
	plan, err := commplan.BuildSymbolic(e.C, rows, p)
	if err != nil {
		return nil, err
	}
	m := &Matrix{
		P:       p,
		Pos:     e.Pos,
		Plan:    plan,
		tagBase: 2000 + ctx*matrixTagStride,
	}
	if phi > 0 {
		m.Red, err = commplan.BuildRedundancy(plan, phi)
		if err != nil {
			return nil, err
		}
		m.sendLists = m.Red.SendLists()
	} else {
		m.sendLists = make([][]int, p.Ranks())
		for k, s := range plan.SendTo {
			if k != e.Pos && len(s) > 0 {
				m.sendLists[k] = s
			}
		}
	}
	if err := m.exchangeRecvLists(e); err != nil {
		return nil, err
	}
	if phi > 0 {
		m.Ret = commplan.NewRetention(m.recvLists, 1)
		lo, hi := p.Range(e.Pos)
		m.Holders = commplan.NewHolderTable(m.sendLists, lo, hi-lo)
	}
	m.buildKernels(rows)
	return m, nil
}

// exchangeRecvLists distributes the merged send lists so each receiver knows
// the static index layout of incoming SpMV messages.
func (m *Matrix) exchangeRecvLists(e *Env) error {
	tag := m.tagBase + 1
	for k, idx := range m.sendLists {
		if k == e.Pos {
			continue
		}
		// Send the list (possibly empty) so every pair agrees.
		if err := e.C.Send(cluster.CatOther, k, tag, nil, idx); err != nil {
			return err
		}
	}
	m.recvLists = make([][]int, e.Size())
	for k := 0; k < e.Size(); k++ {
		if k == e.Pos {
			continue
		}
		msg, err := e.C.Recv(k, tag)
		if err != nil {
			return err
		}
		m.recvLists[k] = msg.I
	}
	return nil
}

// buildKernels precomputes the static kernel plans off the symbolic state:
// the send gather plans, the per-source receive scatter plans and the
// column-localised interior/boundary split of the static row block, every
// array allocated at its final size. Runs once at construction; everything it
// builds is immutable and shared by Forks.
func (m *Matrix) buildKernels(rows *sparse.CSR) {
	lo, hi := m.P.Range(m.Pos)
	m.ghost = m.Plan.GhostIndices()
	m.sendPlan = make([]copyList, len(m.sendLists))
	for k, idx := range m.sendLists {
		m.sendPlan[k] = gatherPlan(idx, lo)
	}
	// Source k's payload carries the elements this rank's SpMV needs
	// (Plan.RecvFrom[k]) among pure redundancy: merge the two sorted lists.
	m.recvPlan = make([]copyList, len(m.recvLists))
	for k, idx := range m.recvLists {
		need := m.Plan.RecvFrom[k]
		if len(need) == 0 {
			continue
		}
		pos, dst := make([]int, 0, len(need)), make([]int, 0, len(need))
		slot, _ := m.GhostSpan(k)
		base, j := hi-lo+slot, 0
		for t, g := range idx {
			for j < len(need) && need[j] < g {
				j++
			}
			if j < len(need) && need[j] == g {
				pos, dst = append(pos, t), append(dst, base+j)
			}
		}
		m.recvPlan[k] = newCopyList(len(pos), func(i int) (int, int) { return pos[i], dst[i] })
	}
	m.split = sparse.SplitLocalize(rows, lo, hi, m.ghost)
}

// gatherPlan returns the plan that gathers the global indices idx, all in
// the own block starting at lo, into a payload in list order.
func gatherPlan(idx []int, lo int) copyList {
	return newCopyList(len(idx), func(i int) (int, int) { return idx[i] - lo, i })
}

// InteriorRows returns the interior/boundary row counts of the localised
// block: interior rows read no ghost data and overlap the halo exchange.
func (m *Matrix) InteriorRows() (interior, boundary int) {
	return m.split.Interior.Rows, m.split.Boundary.Rows
}

// MatVecTimings is the wall-clock split of one MatMat (or MatVec) call
// across the communication-hiding schedule's four phases. Comparing Interior (compute
// racing the wire) against Drain (time left waiting for receives) measures
// how much halo latency the overlap actually hides.
type MatVecTimings struct {
	// PostSend is the time to gather and post the outgoing halo payloads.
	PostSend time.Duration
	// Interior is the interior-row compute overlapped with the receives.
	Interior time.Duration
	// Drain is the time draining the receives and scattering the ghosts.
	Drain time.Duration
	// Boundary is the boundary-row compute after the drain (plus the
	// retention-store handoff).
	Boundary time.Duration
}

// SetMatVecObserver installs fn to receive the per-phase timing split of
// every subsequent product on this matrix (nil uninstalls). fn is called
// synchronously at the end of each MatMat, so it must be cheap; it never
// affects results. Not safe to call concurrently with MatMat; set it at
// preparation time (Forks inherit it).
func (m *Matrix) SetMatVecObserver(fn func(MatVecTimings)) { m.obs = fn }

// Fork returns a new Matrix sharing all of m's static state — the halo plan,
// the redundancy protocol, the localised split and the send/receive lists,
// all of which are immutable after construction — with
// fresh per-solve mutable state: its own SpMV scratch and, for
// resilience-enabled matrices, its own empty retention store (over the
// shared receive lists: a fork builds no index).
//
// Fork is the prepare-once/solve-many primitive: one symbolic build
// (NewMatrix, which requires collective communication) can serve many
// concurrent solves, each on its own runtime, as long as every solve works
// on its own fork. The receiver itself may be one of the concurrent users.
func (m *Matrix) Fork() *Matrix {
	n := *m
	n.scratch = spmvScratch{}
	if m.Ret != nil {
		n.Ret = commplan.NewRetention(m.recvLists, 1)
	}
	return &n
}

// GhostSpan returns the ghost slots [lo, hi) holding Plan.RecvFrom[r], in
// that order, counted from the first ghost slot (the local column after the
// own block): the ghost list is the RecvFrom lists in rank order.
func (m *Matrix) GhostSpan(r int) (lo, hi int) {
	for _, idx := range m.Plan.RecvFrom[:r] {
		lo += len(idx)
	}
	return lo, lo + len(m.Plan.RecvFrom[r])
}

// NumGhosts returns the number of ghost slots.
func (m *Matrix) NumGhosts() int { return len(m.ghost) }

// GhostProduct computes y += sum over external columns of the row block:
// y[i] += A[i, c] * g[s*k+col] for every stored entry whose column is ghost
// slot s with live[s]; the other slots contribute nothing. g holds k columns
// slot-major (k consecutive values per slot). With live marking the
// survivor-owned slots this evaluates the reconstruction product
// A_{If, I\If} x_{I\If} of the paper's Alg. 2 (line 7). Only the boundary rows
// hold external entries, so it walks those alone, skipping their own-block
// columns; the external entries are visited in stored order, keeping the
// accumulation bit-identical to a full row sweep.
func (m *Matrix) GhostProduct(y, g []float64, k, col int, live []bool) {
	bs := m.blockSize()
	b := m.split.Boundary
	for r, i := range m.split.BndRows {
		cols, vals := b.Row(r)
		var s float64
		for t, c := range cols {
			if c >= bs && live[c-bs] {
				s += vals[t] * g[(c-bs)*k+col]
			}
		}
		y[i] += s
	}
}

// blockSize is the number of rows (and own-block columns) this rank owns.
func (m *Matrix) blockSize() int { return m.split.Interior.Rows + m.split.Boundary.Rows }

// eachRow calls fn for every row of the local block in source order with its
// column-localised entries in stored order: own columns in [0, blockSize()),
// ghost slots from blockSize() on.
func (m *Matrix) eachRow(fn func(i int, cols []int, vals []float64)) {
	s := m.split
	in, bn := 0, 0
	for i := 0; i < m.blockSize(); i++ {
		if in < len(s.IntRows) && s.IntRows[in] == i {
			cols, vals := s.Interior.Row(in)
			fn(i, cols, vals)
			in++
			continue
		}
		cols, vals := s.Boundary.Row(bn)
		fn(i, cols, vals)
		bn++
	}
}

// Diag returns the local block's diagonal entries (global row = global col).
func (m *Matrix) Diag() []float64 {
	d := make([]float64, m.blockSize())
	m.eachRow(func(i int, cols []int, vals []float64) {
		for t, c := range cols {
			if c == i {
				d[i] = vals[t]
			}
		}
	})
	return d
}

// OwnBlock extracts the square diagonal block A_{Ii, Ii} with localised
// column indices (0-based within the block): the stored entries whose column
// lies in the own range, in stored order — an interior row whole, a boundary
// row without its ghost slots.
func (m *Matrix) OwnBlock() *sparse.CSR {
	bs := m.blockSize()
	nnz := m.split.Interior.NNZ()
	for _, c := range m.split.Boundary.Col {
		if c < bs {
			nnz++
		}
	}
	blk := &sparse.CSR{
		Rows:   bs,
		Cols:   bs,
		RowPtr: make([]int, bs+1),
		Col:    make([]int, 0, nnz),
		Val:    make([]float64, 0, nnz),
	}
	m.eachRow(func(i int, cols []int, vals []float64) {
		for t, c := range cols {
			if c < bs {
				blk.Col = append(blk.Col, c)
				blk.Val = append(blk.Val, vals[t])
			}
		}
		blk.RowPtr[i+1] = len(blk.Col)
	})
	return blk
}
