package distmat

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/commplan"
	"repro/internal/vec"
)

// Interleaving is confined to this file: at k > 1 the k rank-local columns
// are copied into a row-major buffer (k consecutive values per local column),
// the SpMM kernels run on it, and the result is copied back out per column;
// at k = 1 the own block is copied into the same buffer and the kernels write
// y directly. Interleave/deinterleave are pure copies and the kernels
// accumulate each column in MulVec's stored-entry order, so column j of a
// MatMat is bitwise identical to a MatVec of column j alone — on every
// transport.

// interleaveTile is the row tile of the k mod 8 columns interleave copies
// one at a time: the tile's k-strided rows (64·k floats) stay in L1 while
// each of those columns visits them. Pure copies: no result depends on it.
const interleaveTile = 64

// interleave copies the first bs entries of every column into the k-strided
// buffer xb (k = len(cols)), eight columns per row visit, then the rest.
func interleave(xb []float64, cols []Vector, bs int) {
	k := len(cols)
	c := 0
	for ; c+8 <= k; c += 8 {
		x0, x1, x2, x3 := cols[c].Local[:bs], cols[c+1].Local[:bs], cols[c+2].Local[:bs], cols[c+3].Local[:bs]
		x4, x5, x6, x7 := cols[c+4].Local[:bs], cols[c+5].Local[:bs], cols[c+6].Local[:bs], cols[c+7].Local[:bs]
		for i := range bs {
			r := xb[i*k+c:][:8]
			r[0], r[1], r[2], r[3] = x0[i], x1[i], x2[i], x3[i]
			r[4], r[5], r[6], r[7] = x4[i], x5[i], x6[i], x7[i]
		}
	}
	for lo := 0; lo < bs && c < k; lo += interleaveTile {
		hi := min(lo+interleaveTile, bs)
		for j := c; j < k; j++ {
			for i, v := range cols[j].Local[lo:hi] {
				xb[(lo+i)*k+j] = v
			}
		}
	}
}

// deinterleave is interleave's inverse: column j of the k-strided buffer yb
// goes to the first bs entries of cols[j].
func deinterleave(cols []Vector, yb []float64, bs int) {
	k := len(cols)
	c := 0
	for ; c+8 <= k; c += 8 {
		y0, y1, y2, y3 := cols[c].Local[:bs], cols[c+1].Local[:bs], cols[c+2].Local[:bs], cols[c+3].Local[:bs]
		y4, y5, y6, y7 := cols[c+4].Local[:bs], cols[c+5].Local[:bs], cols[c+6].Local[:bs], cols[c+7].Local[:bs]
		for i := range bs {
			r := yb[i*k+c:][:8]
			y0[i], y1[i], y2[i], y3[i] = r[0], r[1], r[2], r[3]
			y4[i], y5[i], y6[i], y7[i] = r[4], r[5], r[6], r[7]
		}
	}
	for lo := 0; lo < bs && c < k; lo += interleaveTile {
		hi := min(lo+interleaveTile, bs)
		for j := c; j < k; j++ {
			dst := cols[j].Local[lo:hi]
			for i := range dst {
				dst[i] = yb[(lo+i)*k+j]
			}
		}
	}
}

// SetBlockWidth prepares the matrix for width-k MatMat calls: the
// retention store is replaced by an empty one expecting k values per
// retained halo element, over the same shared receive lists. Call it on a
// per-solve Fork before the first MatMat (a fork serves either single-RHS or
// width-k solves, never both); width 1 is the Fork default. No-op for
// matrices without retention.
func (m *Matrix) SetBlockWidth(k int) {
	if m.Ret != nil && m.Ret.Width() != k {
		m.Ret = commplan.NewRetention(m.recvLists, k)
	}
}

// BlockScratch returns the matrix's k-strided output buffer: its own block's
// rows times k columns, where a product over k > 1 columns lands before it
// is de-interleaved into the columns. It holds nothing between products, so
// the solve that owns this matrix (a Fork) may use it as working space until
// its next product: the fused preconditioner sweep does, instead of keeping
// a block of its own.
func (m *Matrix) BlockScratch(k int) []float64 {
	n := m.blockSize() * k
	if cap(m.scratch.y) < n {
		m.scratch.y = make([]float64, n)
	}
	return m.scratch.y[:n]
}

// input returns the width-k input buffer: the own block, then the ghost
// slots, k values per local column. Every product writes all of it (the own
// block, and every ghost slot from its source's payload) before reading it,
// so a buffer left over from another width is resliced, never cleared.
func (m *Matrix) input(k int) []float64 {
	sc := &m.scratch
	if k != sc.xWidth {
		n := (m.blockSize() + len(m.ghost)) * k
		if cap(sc.x) < n {
			sc.x = make([]float64, n)
		}
		sc.x = sc.x[:n]
		sc.xWidth = k
	}
	return sc.x
}

// MatMat computes y[j] = A x[j] for j = 0..k-1, the distributed vectors on
// the matrix's partition: it is the one distributed SpMV, a single vector
// being its k = 1 case (MatVec). One matrix traversal amortizes over the k
// columns, and each neighbor receives ONE pooled frame carrying k values per
// merged halo+redundancy element (piggybacking, Sec. 4.2), so the message
// count stays that of a single vector. When resilience is enabled the
// received generation is retained under the iteration number iter. A
// product over no columns (a blocked solve whose every active column broke
// down) computes and sends nothing.
//
// The schedule hides communication behind computation (Levonyak et al.'s
// prerequisite for scalable resilient PCG): post the owned halo sends,
// compute the interior rows — which read no ghost data — while the receives
// are in flight, then drain the receives, scatter k values per ghost element
// through the precomputed plans, and finish with the boundary rows. The row
// split never changes a row's accumulation order, so the result is
// bit-identical to the serial product of the unsplit rows on every transport.
//
// iter < 0 marks inputs that are not search directions (initial residual,
// verification products, preconditioner applications): they are not
// retained. A retained generation iter needs iter-1 beside it and nothing
// older: the rest is dropped and recycled before the sends, so they draw the
// recycled buffers and no more than two generations are ever live. The store
// must have been prepared with SetBlockWidth(k).
//
// Payload lifetimes follow the transport's zero-copy contract: outgoing
// payloads are drawn from the transport's buffer recycler and handed off
// with SendOwned (never touched again here); received payloads are either
// recycled as soon as their values are scattered (non-retaining calls) or
// owned by the retention store for two generations and recycled when the
// product of the generation after next drops them.
func (m *Matrix) MatMat(e *Env, y, x []Vector, iter int) error {
	k := len(x)
	if len(y) != k {
		return fmt.Errorf("distmat: MatMat needs matching column sets (%d vs %d)", len(y), k)
	}
	if k == 0 {
		return nil
	}
	lo, hi := m.P.Range(m.Pos)
	bs := hi - lo
	for c, col := range x {
		if len(col.Local) != bs {
			return fmt.Errorf("distmat: MatMat column %d has %d local entries, want %d", c, len(col.Local), bs)
		}
	}
	tag := m.tagBase + 2
	retain := m.Ret != nil && iter >= 0
	if retain && m.Ret.Width() != k {
		return fmt.Errorf("distmat: MatMat width %d on a retention store of width %d (call SetBlockWidth)", k, m.Ret.Width())
	}
	// Phase timing is observational only: the clock is read at the phase
	// boundaries the schedule already has, never between arithmetic.
	var tm MatVecTimings
	var mark time.Time
	if m.obs != nil {
		mark = time.Now()
	}
	if retain {
		for _, old := range m.Ret.Keep(iter - 1) {
			e.C.PutFloats(old)
		}
	}
	// The own block goes into the input buffer first: the send gathers and
	// the interior kernel both read it there, k-strided. A single column's
	// output is y itself; k columns land in the k-strided output buffer.
	xb := m.input(k)
	yb := y[0].Local
	if k == 1 {
		copy(xb[:bs], x[0].Local)
	} else {
		yb = m.BlockScratch(k)
		interleave(xb, x, bs)
	}
	// Post sends: one pooled frame per destination, k consecutive values
	// per merged halo+redundancy element.
	for d, idx := range m.sendLists {
		if d == e.Pos || len(idx) == 0 {
			continue
		}
		payload := e.C.GetFloats(len(idx) * k)
		m.sendPlan[d].copy(payload, xb, k)
		cat := cluster.CatHalo
		nHalo := len(m.Plan.SendTo[d])
		if nHalo == 0 {
			cat = cluster.CatRedundancy // fresh message: the extra latency case
		}
		// The payload is freshly built: transfer ownership, skip the copy.
		if err := e.C.SendOwned(cat, e.Members[d], e.tag+tag, payload, nil); err != nil {
			return err
		}
		if extra := len(idx) - nHalo; extra > 0 && nHalo > 0 {
			// Piggybacked redundancy elements: reclassify their volume.
			e.C.Reclassify(cluster.CatHalo, cluster.CatRedundancy, int64(extra*k))
		}
	}
	if m.obs != nil {
		now := time.Now()
		tm.PostSend = now.Sub(mark)
		mark = now
	}
	// The interior rows read only the own block: with the sends posted,
	// compute them while the halo messages are on the wire.
	m.split.Interior.MulMatScatter(yb, xb, m.split.IntRows, k)
	if m.obs != nil {
		now := time.Now()
		tm.Interior = now.Sub(mark)
		mark = now
	}
	var recvVals [][]float64
	if retain {
		if m.scratch.recv == nil {
			m.scratch.recv = make([][]float64, e.Size())
		}
		recvVals = m.scratch.recv
		for i := range recvVals {
			recvVals[i] = nil
		}
	}
	for s, idx := range m.recvLists {
		if s == e.Pos || len(idx) == 0 {
			continue
		}
		msg, err := e.recv(s, tag)
		if err != nil {
			return err
		}
		if len(msg.F) != len(idx)*k {
			return fmt.Errorf("distmat: MatMat from pos %d: %d values, want %d", s, len(msg.F), len(idx)*k)
		}
		m.recvPlan[s].copy(xb, msg.F, k)
		if retain {
			recvVals[s] = msg.F
		} else {
			e.C.Recycle(msg)
		}
	}
	if m.obs != nil {
		now := time.Now()
		tm.Drain = now.Sub(mark)
		mark = now
	}
	m.split.Boundary.MulMatScatter(yb, xb, m.split.BndRows, k)
	if k > 1 {
		deinterleave(y, yb, bs)
	}
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

// MatVec computes y = A x: MatMat at width 1.
func (m *Matrix) MatVec(e *Env, y, x Vector, iter int) error {
	return m.MatMat(e, []Vector{y}, []Vector{x}, iter)
}

// ResidualBlock computes r[j] = b[j] - A x[j] for every column with a
// single MatMat. Column j is bitwise identical to Residual on column j.
func (m *Matrix) ResidualBlock(e *Env, r, b, x []Vector, iter int) error {
	if err := m.MatMat(e, r, x, iter); err != nil {
		return err
	}
	for c := range r {
		vec.Axpby(1, b[c].Local, -1, r[c].Local)
	}
	return nil
}

// Residual computes r = b - A x into r (all distributed): ResidualBlock at
// width 1. Used by solvers at setup and for verification.
func (m *Matrix) Residual(e *Env, r, b, x Vector, iter int) error {
	return m.ResidualBlock(e, []Vector{r}, []Vector{b}, []Vector{x}, iter)
}
