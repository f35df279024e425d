package distmat

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/commplan"
	"repro/internal/vec"
)

// Blocked (multi-RHS) SpMM: MatMat is MatVec over k distributed vectors at
// once. One matrix traversal amortizes over the k columns and each neighbor
// receives ONE pooled frame carrying k consecutive values per halo element
// (k-strided payload), so the per-iteration message count stays that of a
// single MatVec while the arithmetic intensity grows k-fold.
//
// Interleaving is confined to this file: the k rank-local columns are
// copied into a row-major buffer (k consecutive values per local column),
// the SpMM kernels run on it, and the result is copied back out per
// column. Interleave/deinterleave are pure copies and the kernels
// accumulate each column in MulVec's stored-entry order, so column j of a
// MatMat is bitwise identical to a MatVec of column j alone — on every
// transport.

// interleaveTile is the row tile of MatMat's interleave and de-interleave
// copies: the k-strided rows of one tile (64·k floats) stay in L1 while every
// column visits them, instead of each column walking all bs·k of them with
// every store on a different cache line. Pure copies, so the tile size never
// changes a result.
const interleaveTile = 64

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

// growBlockScratch sizes the interleaved input/output buffers for width k.
func (m *Matrix) growBlockScratch(rows, k int) {
	if len(m.xbufK) < len(m.xbuf)*k {
		m.xbufK = make([]float64, len(m.xbuf)*k)
	}
	if len(m.ybufK) < rows*k {
		m.ybufK = make([]float64, rows*k)
	}
}

// MatMat computes y[j] = A x[j] for j = 0..k-1 with a single k-column halo
// exchange, following MatVec's communication-hiding schedule verbatim:
// post the owned k-strided halo sends, run the interior SpMM while the
// receives are in flight, drain and scatter k values per ghost element,
// finish with the boundary rows. Retention (iter >= 0) keeps generation
// iter-1, recycles anything older before the sends and stores the k-strided
// payloads; the store must have been prepared with SetBlockWidth(k).
func (m *Matrix) MatMat(e *Env, y, x []Vector, iter int) error {
	k := len(x)
	if k == 0 || len(y) != k {
		return fmt.Errorf("distmat: MatMat needs matching non-empty column sets (%d vs %d)", len(y), k)
	}
	if k == 1 {
		return m.MatVec(e, y[0], x[0], iter)
	}
	lo, hi := m.P.Range(m.Pos)
	bs := hi - lo
	tag := m.tagBase + 3
	retain := m.Ret != nil && iter >= 0
	if retain && m.Ret.Width() != k {
		return fmt.Errorf("distmat: MatMat width %d on a retention store of width %d (call SetBlockWidth)", k, m.Ret.Width())
	}
	if retain {
		for _, old := range m.Ret.Keep(iter - 1) {
			e.C.PutFloats(old)
		}
	}
	m.growBlockScratch(bs, k)
	// Views at the current width: the scratch only ever grows, and a matrix
	// may serve different widths across calls (the fused preconditioner
	// path shrinks k as columns converge).
	xb := m.xbufK[:len(m.xbuf)*k]
	yb := m.ybufK[:bs*k]
	var tm MatVecTimings
	var mark time.Time
	if m.obs != nil {
		mark = time.Now()
	}
	// Interleave the own block first: the send gathers and the interior
	// kernel both read it k-strided.
	for c, col := range x {
		if len(col.Local) != bs {
			return fmt.Errorf("distmat: MatMat column %d has %d local entries, want %d", c, len(col.Local), bs)
		}
	}
	for lo := 0; lo < bs; lo += interleaveTile {
		hi := min(lo+interleaveTile, bs)
		for c, col := range x {
			for i, v := range col.Local[lo:hi] {
				xb[(lo+i)*k+c] = v
			}
		}
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
		if err := e.C.SendOwned(cat, e.Members[d], e.tag+tag, payload, nil); err != nil {
			return err
		}
		if extra := len(idx) - nHalo; extra > 0 && nHalo > 0 {
			// Piggybacked redundancy elements carry k columns each now.
			e.C.Reclassify(cluster.CatHalo, cluster.CatRedundancy, int64(extra*k))
		}
	}
	if m.obs != nil {
		now := time.Now()
		tm.PostSend = now.Sub(mark)
		mark = now
	}
	m.split.Interior.MulMatScatterPar(yb, xb, m.split.IntRows, k)
	if m.obs != nil {
		now := time.Now()
		tm.Interior = now.Sub(mark)
		mark = now
	}
	var recvVals [][]float64
	if retain {
		if m.recvScratchK == nil {
			m.recvScratchK = make([][]float64, e.Size())
		}
		recvVals = m.recvScratchK
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
	m.split.Boundary.MulMatScatterPar(yb, xb, m.split.BndRows, k)
	for lo := 0; lo < bs; lo += interleaveTile {
		hi := min(lo+interleaveTile, bs)
		for c, col := range y {
			dst := col.Local[lo:hi]
			for i := range dst {
				dst[i] = yb[(lo+i)*k+c]
			}
		}
	}
	if retain {
		m.Ret.Store(iter, recvVals)
	}
	if m.obs != nil {
		tm.Boundary = time.Since(mark)
		m.obs(tm)
	}
	return nil
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
