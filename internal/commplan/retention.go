package commplan

import "fmt"

// Retention is the per-rank store of redundant search-direction copies. The
// resilient solver keeps the two most recent generations (p^(j-1) and p^(j),
// paper Sec. 2.2): every element received from other ranks during the SpMV
// (halo and redundancy top-ups alike). The rank's own block is not copied:
// a replacement rebuilds its own block from the survivors' copies, and a
// survivor's own block is never read back from here.
//
// Reads are non-destructive: overlapping failures restart the reconstruction
// and re-read the same generations (Sec. 4.1).
type Retention struct {
	// idxFrom[src] lists, sorted, the static global indices received from
	// src each iteration (nil when nothing is received from src). It is the
	// matrix's own receive list, shared read-only by every store of a
	// session. A recovery read addresses an element by its position in this
	// list (HolderTable), so the store keeps no index of its own.
	idxFrom [][]int
	gens    [2]retGen
	// dropped is the reusable scratch returned by Keep.
	dropped [][]float64
	// width is the number of consecutive values stored per index: 1 for the
	// single-RHS solve path, k for blocked multi-RHS solves whose halo
	// payloads carry k columns per element.
	width int
}

type retGen struct {
	iter int
	vals [][]float64 // vals[src], aligned with idxFrom[src]
}

// NewRetention creates a retention store for a rank that receives the given
// static, sorted per-source index lists each iteration (see RecvLists), each
// index carrying width consecutive values (one per column of a blocked
// multi-RHS solve): Store expects len(IndicesFrom(src))*width values per
// source and ValuesAt returns width values per requested position. The store
// keeps a reference to idxFrom, which must not change.
func NewRetention(idxFrom [][]int, width int) *Retention {
	if width < 1 {
		panic(fmt.Sprintf("commplan: retention width %d < 1", width))
	}
	return &Retention{idxFrom: idxFrom, width: width, gens: [2]retGen{{iter: -1}, {iter: -1}}}
}

// IndicesFrom returns the static indices held from source src.
func (rt *Retention) IndicesFrom(src int) []int { return rt.idxFrom[src] }

// Width returns the number of values stored per index.
func (rt *Retention) Width() int { return rt.width }

// Keep drops every retained generation except keep and returns the payload
// slices it dropped (nothing else references them any more), so callers on
// a pooled transport can hand them back to the buffer recycler before they
// draw the next generation's payloads from it. The returned slice is only
// valid until the next Keep call.
func (rt *Retention) Keep(keep int) (dropped [][]float64) {
	rt.dropped = rt.dropped[:0]
	for i := range rt.gens {
		g := &rt.gens[i]
		if keep >= 0 && g.iter == keep {
			continue
		}
		g.iter = -1
		for src, v := range g.vals {
			if cap(v) > 0 {
				rt.dropped = append(rt.dropped, v)
			}
			g.vals[src] = nil
		}
	}
	return rt.dropped
}

// Store records generation iter: the values received from each source
// (aligned with IndicesFrom(src)). The recv slices are retained by reference
// (the store takes ownership: they are the per-message payload buffers,
// which the receiver owns exclusively); the caller may reuse the outer recv
// slice after Store returns, but not the retained inner slices. Store only
// adds: it needs a free slot, so a caller holding two generations first
// drops one with Keep.
func (rt *Retention) Store(iter int, recv [][]float64) {
	g := &rt.gens[0]
	if g.iter >= 0 {
		g = &rt.gens[1]
	}
	if g.iter >= 0 {
		panic(fmt.Sprintf("commplan: Retention.Store(%d) with generations %d and %d held (call Keep first)",
			iter, rt.gens[0].iter, rt.gens[1].iter))
	}
	if g.vals == nil {
		g.vals = make([][]float64, len(rt.idxFrom))
	}
	for src := range rt.idxFrom {
		var in []float64
		if src < len(recv) {
			in = recv[src]
		}
		if len(in) != len(rt.idxFrom[src])*rt.width {
			panic(fmt.Sprintf("commplan: Retention.Store source %d got %d values, want %d",
				src, len(in), len(rt.idxFrom[src])*rt.width))
		}
		g.vals[src] = in
	}
	g.iter = iter
}

// Generations returns the iterations currently retained, newest first (-1
// for an empty slot).
func (rt *Retention) Generations() (newest, oldest int) {
	a, b := rt.gens[0].iter, rt.gens[1].iter
	if a >= b {
		return a, b
	}
	return b, a
}

func (rt *Retention) gen(iter int) *retGen {
	for i := range rt.gens {
		if rt.gens[i].iter == iter && iter >= 0 {
			return &rt.gens[i]
		}
	}
	return nil
}

// ValuesAt appends to dst the retained values of generation iter from source
// src at the given positions of IndicesFrom(src): width consecutive values
// per position, in request order, each a direct slice of the stored payload.
func (rt *Retention) ValuesAt(dst []float64, iter, src int, pos []int) ([]float64, error) {
	g := rt.gen(iter)
	if g == nil {
		return dst, fmt.Errorf("commplan: generation %d not retained", iter)
	}
	vals, w := g.vals[src], rt.width
	for _, p := range pos {
		if p < 0 || p >= len(rt.idxFrom[src]) {
			return dst, fmt.Errorf("commplan: position %d of rank %d's list not held here", p, src)
		}
		dst = append(dst, vals[p*w:p*w+w]...)
	}
	return dst, nil
}

// Wipe discards all retained data, simulating the memory loss of a node
// failure on the slot that is being reused as the replacement node. The
// payload buffers stay in their slots for the next Keep to recycle.
func (rt *Retention) Wipe() {
	for i := range rt.gens {
		rt.gens[i].iter = -1
	}
}
