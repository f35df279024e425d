package commplan

import (
	"slices"
	"sync"
)

// HolderTable is the static recovery index of one rank's block: for every
// row, the other ranks holding a copy of it after one SpMV's halo and
// redundancy rounds — { k : s in S_ik } u { d_ik : s in R^c_ik } —
// ascending, with the row's position in each holder's retained list from
// this rank. Holder k retains exactly the merged send list to k
// (Redundancy.SendLists), in order, so the table is read off those lists
// and a recovery read needs no search. Only a replacement reads it, so it
// is built on its first read, once per session, not at setup.
type HolderTable struct {
	sendLists [][]int
	lo, rows  int
	once      sync.Once
	// ptr[off]..ptr[off+1] index rank and pos for block row off.
	ptr, rank, pos []int
}

// NewHolderTable returns the table of the block of rows rows starting at
// global index lo over its merged send lists, indexed by destination rank;
// the lists must not change.
func NewHolderTable(sendLists [][]int, lo, rows int) *HolderTable {
	return &HolderTable{sendLists: sendLists, lo: lo, rows: rows}
}

// index builds the table on the first call.
func (h *HolderTable) index() {
	h.once.Do(func() {
		lo, rows := h.lo, h.rows
		h.ptr = make([]int, rows+1)
		for _, idx := range h.sendLists {
			for _, g := range idx {
				h.ptr[g-lo+1]++
			}
		}
		for off := range rows {
			h.ptr[off+1] += h.ptr[off]
		}
		h.rank, h.pos = make([]int, h.ptr[rows]), make([]int, h.ptr[rows])
		next := slices.Clone(h.ptr[:rows])
		// Destinations ascend, so each row's holders come out ascending.
		for k, idx := range h.sendLists {
			for t, g := range idx {
				at := next[g-lo]
				h.rank[at], h.pos[at] = k, t
				next[g-lo]++
			}
		}
	})
}

// Gather is a replacement's tailored recovery gather under one failed set:
// from each rank r it requests the retention positions Pos[Ptr[r]:Ptr[r+1]],
// whose values fill block rows Row[Ptr[r]:Ptr[r+1]], ascending. Uncovered
// lists the rows no surviving rank holds: non-empty means unrecoverable data
// loss (e.g. Chen's strategy under adjacent multi-failures, paper Sec. 3).
type Gather struct {
	Ptr, Pos, Row, Uncovered []int
}

// Assign picks, for every row, its lowest-ranked holder that is not failed
// (failed is indexed by rank) and returns the resulting gather.
func (h *HolderTable) Assign(failed []bool) Gather {
	h.index()
	rows := h.rows
	pick := make([]int, rows) // table entry of the row's holder, -1 if none
	g := Gather{Ptr: make([]int, len(failed)+1)}
	for off := range pick {
		pick[off] = -1
		for t := h.ptr[off]; t < h.ptr[off+1]; t++ {
			if r := h.rank[t]; !failed[r] {
				pick[off] = t
				g.Ptr[r+1]++
				break
			}
		}
		if pick[off] < 0 {
			g.Uncovered = append(g.Uncovered, off)
		}
	}
	for r := range failed {
		g.Ptr[r+1] += g.Ptr[r]
	}
	n := g.Ptr[len(failed)]
	g.Pos, g.Row = make([]int, n), make([]int, n)
	next := slices.Clone(g.Ptr[:len(failed)])
	for off, t := range pick {
		if t >= 0 {
			at := next[h.rank[t]]
			g.Pos[at], g.Row[at] = h.pos[t], off
			next[h.rank[t]]++
		}
	}
	return g
}
