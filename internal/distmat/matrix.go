package distmat

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/commplan"
	"repro/internal/partition"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// Matrix is the local part of a block-row distributed sparse matrix together
// with its communication structure. Its one copy of the static row block (the
// paper's A_{Ii, I}, reconstructible from reliable storage) is split: the
// rows column-localised and divided into interior and boundary for the SpMV
// kernels. Everything else that reads the rows — OwnBlock, Diag, GhostProduct
// — reads them there, mapping a ghost column back to its global index through
// ghost.
type Matrix struct {
	// P is the row/vector partition of the Env's index space.
	P partition.Partition
	// Pos is the owning position.
	Pos int
	// Plan is the SpMV halo plan (S_ik / RecvFrom sets).
	Plan *commplan.HaloPlan
	// Red is the redundancy protocol state; nil when phi = 0.
	Red *commplan.Redundancy
	// Ret retains the two most recent SpMV input generations; nil when the
	// matrix is not resilience-enabled. Its index is recvLists, shared by
	// every fork and block width.
	Ret *commplan.Retention

	// ghost is Plan.GhostIndices(): the sorted external global indices the
	// SpMV reads. Ghost i lives in local column (own block size) + i.
	ghost       []int
	sendLists   [][]int // merged halo+redundancy indices per destination
	recvLists   [][]int // merged indices received per source
	xbuf        []float64
	recvScratch [][]float64 // per-MatVec staging of retained payloads
	// Blocked-solve scratch (see matmat.go): interleaved k-strided input and
	// output blocks plus the MatMat staging of retained payloads. Lazily
	// sized; per-fork like xbuf/recvScratch.
	xbufK        []float64
	ybufK        []float64
	recvScratchK [][]float64
	tagBase      int

	// Static kernel plans, precomputed once after the symbolic phase so the
	// per-iteration MatVec runs without a single map lookup (they used to
	// dominate its profile). All are immutable after construction and shared
	// by Forks.

	// split is the column-localised row block in two parts: interior rows
	// read only own-block columns and compute while the halo receives are
	// still in flight (communication-hiding SpMV); boundary rows wait.
	split *sparse.RowSplit
	// sendPlan[k] gathers the payload for destination k: sendLists[k] from
	// the own block (src a block-relative index, dst a payload position).
	sendPlan []copyList
	// recvPlan[k] scatters an incoming payload from source k into xbuf (src
	// a payload position, dst a ghost slot). Payload positions that carry
	// pure redundancy (not needed by this rank's SpMV) are absent.
	recvPlan []copyList

	// obs, when non-nil, receives the per-phase wall-clock split of every
	// MatVec (see SetMatVecObserver). Purely observational.
	obs func(MatVecTimings)
}

// matrixTag spaces the SpMV message tags of different matrices sharing an
// Env.
const matrixTagStride = 64

// NewMatrix builds the distributed matrix for this position from its static
// row block, running the distributed symbolic phase to derive the halo plan
// (like PETSc's scatter construction) and, for phi > 0, the ESR redundancy
// protocol of the paper's Eqns. 5 and 6. rows is read during construction
// only: the matrix keeps no reference to it, so it may be a view of the
// caller's matrix (sparse.CSR.RowBlock) that the caller later changes.
//
// ctx distinguishes multiple matrices living in the same Env (system matrix,
// explicit preconditioner, recovery submatrix).
func NewMatrix(e *Env, rows *sparse.CSR, p partition.Partition, phi, ctx int) (*Matrix, error) {
	if p.Ranks() != e.Size() {
		return nil, fmt.Errorf("distmat: partition ranks %d != env size %d", p.Ranks(), e.Size())
	}
	if rows.Rows != p.Size(e.Pos) || rows.Cols != p.N() {
		return nil, fmt.Errorf("distmat: row block %dx%d does not match partition (want %dx%d)",
			rows.Rows, rows.Cols, p.Size(e.Pos), p.N())
	}
	plan, err := buildSymbolicEnv(e, rows, p, ctx)
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
	}
	m.buildKernels(rows)
	return m, nil
}

// buildSymbolicEnv is commplan.BuildSymbolic generalised to an Env (group
// positions instead of global ranks).
func buildSymbolicEnv(e *Env, rows *sparse.CSR, p partition.Partition, ctx int) (*commplan.HaloPlan, error) {
	needs := commplan.NeedSets(rows, p, e.Pos)
	pl := &commplan.HaloPlan{
		P:        p,
		Rank:     e.Pos,
		SendTo:   make([][]int, e.Size()),
		RecvFrom: make([][]int, e.Size()),
	}
	tag := 1500 + ctx*matrixTagStride
	for k := 0; k < e.Size(); k++ {
		if k == e.Pos {
			continue
		}
		if err := e.send(cluster.CatOther, k, tag, nil, needs[k]); err != nil {
			return nil, err
		}
	}
	for k := 0; k < e.Size(); k++ {
		if k == e.Pos {
			continue
		}
		msg, err := e.recv(k, tag)
		if err != nil {
			return nil, err
		}
		pl.SendTo[k] = msg.I
		pl.RecvFrom[k] = needs[k]
	}
	return pl, nil
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
		if err := e.send(cluster.CatOther, k, tag, nil, idx); err != nil {
			return err
		}
	}
	m.recvLists = make([][]int, e.Size())
	for k := 0; k < e.Size(); k++ {
		if k == e.Pos {
			continue
		}
		msg, err := e.recv(k, tag)
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
	m.xbuf = make([]float64, hi-lo+len(m.ghost))
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
		base, j := m.ghostSlot(k), 0
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

// ghostSlot returns the local column of the first element of
// Plan.RecvFrom[k]: the ghost list is the RecvFrom lists in rank order.
func (m *Matrix) ghostSlot(k int) int {
	lo, hi := m.P.Range(m.Pos)
	slot := hi - lo
	for _, idx := range m.Plan.RecvFrom[:k] {
		slot += len(idx)
	}
	return slot
}

// InteriorRows returns the interior/boundary row counts of the localised
// block: interior rows read no ghost data and overlap the halo exchange.
func (m *Matrix) InteriorRows() (interior, boundary int) {
	return m.split.Interior.Rows, m.split.Boundary.Rows
}

// MatVecTimings is the wall-clock split of one MatVec call across the
// communication-hiding schedule's four phases. Comparing Interior (compute
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
// every subsequent MatVec on this matrix (nil uninstalls). fn is called
// synchronously at the end of each MatVec, so it must be cheap; it never
// affects results. Not safe to call concurrently with MatVec; set it at
// preparation time (Forks inherit it).
func (m *Matrix) SetMatVecObserver(fn func(MatVecTimings)) { m.obs = fn }

// Fork returns a new Matrix sharing all of m's static state — the halo plan,
// the redundancy protocol, the localised split and the send/receive lists,
// all of which are immutable after construction — with
// fresh per-solve mutable state: its own SpMV scratch buffer and, for
// resilience-enabled matrices, its own empty retention store (over the
// shared receive lists: a fork builds no index).
//
// Fork is the prepare-once/solve-many primitive: one symbolic build
// (NewMatrix, which requires collective communication) can serve many
// concurrent solves, each on its own runtime, as long as every solve works
// on its own fork. The receiver itself may be one of the concurrent users.
func (m *Matrix) Fork() *Matrix {
	n := *m
	n.xbuf = make([]float64, len(m.xbuf))
	n.recvScratch = nil // per-solve staging must not be shared across forks
	n.xbufK, n.ybufK, n.recvScratchK = nil, nil, nil
	if m.Ret != nil {
		n.Ret = commplan.NewRetention(m.recvLists, 1)
	}
	return &n
}

// Restrict returns m's view of the principal submatrix A_{If, If} — If the
// union of the blocks owned by sub's members — distributed over sub with
// each member keeping its own block: the operator of the reconstruction
// subsystems (paper Alg. 2 lines 6 and 8). m must live on the world Env
// (positions are ranks, as sub's Members are) and be the local part of a
// member.
//
// Like Fork it builds nothing that is a function of the matrix: the
// localised interior/boundary split is m's own.
// The halo lists for the member peers are m's Plan.SendTo/RecvFrom entries —
// every member derives them from the member set alone, so there is no
// symbolic exchange — and the fresh ghost buffer keeps every non-member slot
// at zero, which drops A_{If, I\If} from the product while each row's
// remaining terms accumulate in stored order. ctx separates the view's SpMV
// tags from m's and from other live views.
//
// The view serves MatVec, MatMat, Residual(Block) and OwnBlock / Diag (the
// split is m's, so these are m's own block) only: it carries no redundancy
// and no MatVec observer, and its Plan lists are in m's index space.
func (m *Matrix) Restrict(sub *Env, ctx int) (*Matrix, error) {
	if sub.Pos < 0 || sub.Members[sub.Pos] != m.Pos {
		return nil, fmt.Errorf("distmat: Restrict: position %d is not a member of %v", m.Pos, sub.Members)
	}
	if last := sub.Members[sub.Size()-1]; last >= m.P.Ranks() {
		return nil, fmt.Errorf("distmat: Restrict: member %d outside the matrix's %d ranks", last, m.P.Ranks())
	}
	lo, _ := m.P.Range(m.Pos)
	v := *m
	v.Pos = sub.Pos
	v.Red, v.Ret, v.obs = nil, nil, nil
	v.xbuf = make([]float64, len(m.xbuf))
	v.recvScratch = nil
	v.xbufK, v.ybufK, v.recvScratchK = nil, nil, nil
	v.tagBase = 2000 + ctx*matrixTagStride
	sizes := make([]int, sub.Size())
	v.sendLists = make([][]int, sub.Size())
	v.recvLists = make([][]int, sub.Size())
	v.sendPlan = make([]copyList, sub.Size())
	v.recvPlan = make([]copyList, sub.Size())
	for t, f := range sub.Members {
		sizes[t] = m.P.Size(f)
		if t == sub.Pos {
			continue
		}
		send, recv := m.Plan.SendTo[f], m.Plan.RecvFrom[f]
		v.sendLists[t], v.recvLists[t] = send, recv
		v.sendPlan[t] = gatherPlan(send, lo)
		// The whole payload lands in f's ghost slots, in order.
		base := m.ghostSlot(f)
		v.recvPlan[t] = newCopyList(len(recv), func(i int) (int, int) { return i, base + i })
	}
	v.P = partition.FromSizes(sizes)
	v.Plan = &commplan.HaloPlan{P: v.P, Rank: sub.Pos, SendTo: v.sendLists, RecvFrom: v.recvLists}
	return &v, nil
}

// MatVec computes y = A x with the halo exchange, sending merged
// halo+redundancy payloads (piggybacking, Sec. 4.2) and, when resilience is
// enabled, retaining the received generation under the iteration number
// `iter`. x and y are distributed vectors on the matrix's partition.
//
// The schedule hides communication behind computation (Levonyak et al.'s
// prerequisite for scalable resilient PCG): post the owned halo sends,
// compute the interior rows — which read no ghost data — while the receives
// are in flight, then drain the receives, scatter the ghosts through the
// precomputed index lists, and finish with the boundary rows. The row split
// never changes a row's accumulation order, so the result is bit-identical
// to the serial product of the unsplit rows on every transport.
//
// Payload lifetimes follow the transport's zero-copy contract: outgoing
// payloads are drawn from the transport's buffer recycler and handed off
// with SendOwned (never touched again here); received payloads are either
// recycled as soon as their values are scattered (non-retaining calls) or
// owned by the retention store for two generations and recycled when the
// MatVec of the generation after next drops them.
func (m *Matrix) MatVec(e *Env, y, x Vector, iter int) error {
	lo, hi := m.P.Range(m.Pos)
	bs := hi - lo
	tag := m.tagBase + 2
	// Phase timing is observational only: the clock is read at the phase
	// boundaries the schedule already has, never between arithmetic.
	var tm MatVecTimings
	var mark time.Time
	if m.obs != nil {
		mark = time.Now()
	}
	// iter < 0 marks inputs that are not search directions (initial
	// residual, verification products): they are not retained, so their
	// payloads recycle as soon as they are scattered. A retained generation
	// iter needs iter-1 beside it and nothing older: drop the rest first, so
	// the sends below draw the recycled buffers and no more than two
	// generations are ever live.
	retain := m.Ret != nil && iter >= 0
	if retain {
		for _, old := range m.Ret.Keep(iter - 1) {
			e.C.PutFloats(old)
		}
	}
	// Post sends: one message per destination with merged payload.
	for k, idx := range m.sendLists {
		if k == e.Pos || len(idx) == 0 {
			continue
		}
		payload := e.C.GetFloats(len(idx))
		m.sendPlan[k].copy(payload, x.Local, 1)
		cat := cluster.CatHalo
		nHalo := len(m.Plan.SendTo[k])
		if nHalo == 0 {
			cat = cluster.CatRedundancy // fresh message: the extra latency case
		}
		// The payload is freshly built: transfer ownership, skip the copy.
		if err := e.C.SendOwned(cat, e.Members[k], e.tag+tag, payload, nil); err != nil {
			return err
		}
		if extra := len(idx) - nHalo; extra > 0 && nHalo > 0 {
			// Piggybacked redundancy elements: reclassify their volume.
			e.C.Reclassify(cluster.CatHalo, cluster.CatRedundancy, int64(extra))
		}
	}
	if m.obs != nil {
		now := time.Now()
		tm.PostSend = now.Sub(mark)
		mark = now
	}
	// The interior rows read only the own block [0, bs): with the sends
	// posted, compute them while the halo messages are on the wire.
	copy(m.xbuf[:bs], x.Local)
	m.split.Interior.MulVecScatterPar(y.Local, m.xbuf, m.split.IntRows)
	if m.obs != nil {
		now := time.Now()
		tm.Interior = now.Sub(mark)
		mark = now
	}
	// Drain the receives and scatter into the ghost buffer through the
	// precomputed plans.
	var recvVals [][]float64
	if retain {
		if m.recvScratch == nil {
			m.recvScratch = make([][]float64, e.Size())
		}
		recvVals = m.recvScratch
		for i := range recvVals {
			recvVals[i] = nil
		}
	}
	for k, idx := range m.recvLists {
		if k == e.Pos || len(idx) == 0 {
			continue
		}
		msg, err := e.recv(k, tag)
		if err != nil {
			return err
		}
		if len(msg.F) != len(idx) {
			return fmt.Errorf("distmat: MatVec from pos %d: %d values, want %d", k, len(msg.F), len(idx))
		}
		m.recvPlan[k].copy(m.xbuf, msg.F, 1)
		if retain {
			recvVals[k] = msg.F
		} else {
			e.C.Recycle(msg)
		}
	}
	if m.obs != nil {
		now := time.Now()
		tm.Drain = now.Sub(mark)
		mark = now
	}
	m.split.Boundary.MulVecScatterPar(y.Local, m.xbuf, m.split.BndRows)
	if retain {
		// The retention store owns the new generation's payloads.
		m.Ret.Store(iter, recvVals)
	}
	if m.obs != nil {
		tm.Boundary = time.Since(mark)
		m.obs(tm)
	}
	return nil
}

// GhostProduct computes y += sum over external columns of the row block:
// y[i] += A[i, c] * ghost[c] for every stored entry with a column c outside
// this rank's own block; columns missing from ghost contribute zero. With
// ghost filled only with survivor-owned vector entries this evaluates the
// reconstruction products A_{If, I\If} x_{I\If} and P_{If, I\If} r_{I\If}
// of the paper's Alg. 2 (lines 5 and 7). Only the boundary rows hold
// external entries, so it walks those alone, skipping their own-block
// columns and mapping each ghost slot back to its global column; the external
// entries are visited in stored order, keeping the accumulation bit-identical
// to a full row sweep.
func (m *Matrix) GhostProduct(y []float64, ghost map[int]float64) {
	bs := m.blockSize()
	b := m.split.Boundary
	for r, i := range m.split.BndRows {
		cols, vals := b.Row(r)
		var s float64
		for t, c := range cols {
			if c < bs {
				continue
			}
			if v, ok := ghost[m.ghost[c-bs]]; ok {
				s += vals[t] * v
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

// Residual computes r = b - A x into r (all distributed). Scratch-free
// convenience used by solvers at setup and for verification.
func (m *Matrix) Residual(e *Env, r, b, x Vector, iter int) error {
	if err := m.MatVec(e, r, x, iter); err != nil {
		return err
	}
	vec.Axpby(1, b.Local, -1, r.Local)
	return nil
}
