// Package commplan computes the communication structure that both the
// distributed SpMV and the ESR redundancy protocol are built on. It is the
// direct realisation of the paper's Sections 3-5:
//
//   - the sets S_ik of search-direction elements rank i sends to rank k
//     during the computation of A p (Eqn. 2), derived from the sparsity
//     pattern of A under the block-row distribution,
//   - the multiplicity m_i(s) = number of ranks element s is sent to
//     (Eqn. 3),
//   - the backup-rank sequence d_ik (Eqn. 5),
//   - the redundancy top-up sets R^c_ik (Eqn. 6) that guarantee at least phi
//     copies of every element on phi distinct other ranks; at phi = 1 the
//     single top-up set is Chen's leftover set R^c_i = { s : m_i(s) = 0 }
//     (Eqn. 4),
//   - the per-round extra-latency predicate of the communication analysis
//     (Sec. 4.2) and the banded-pattern sufficient condition of Sec. 5.
package commplan

import (
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// HaloPlan describes, for one rank, the SpMV communication pattern induced
// by the sparsity pattern of the distributed matrix: which of its vector
// elements every other rank needs (SendTo, the paper's S_ik) and which
// external elements it needs itself (RecvFrom).
type HaloPlan struct {
	// P is the block-row partition of the vector.
	P partition.Partition
	// Rank is the owning rank i.
	Rank int
	// SendTo[k] lists, sorted, the global indices of this rank's block that
	// rank k requires during SpMV: the paper's S_ik. SendTo[Rank] is nil.
	SendTo [][]int
	// RecvFrom[k] lists, sorted, the global indices this rank requires from
	// rank k: S_ki restricted to this rank's needs. RecvFrom[Rank] is nil.
	RecvFrom [][]int
}

// NeedSets returns, for a CSR row block of rank `rank` (with global column
// indices), the sorted external column indices needed from each other rank.
// Ranks own ascending ranges, so the lists concatenate in rank order to the
// sorted list of all external columns (GhostIndices).
func NeedSets(rows *sparse.CSR, p partition.Partition, rank int) [][]int {
	lo, hi := p.Range(rank)
	needed := make([]bool, rows.Cols)
	total := 0
	for _, c := range rows.Col {
		if (c < lo || c >= hi) && !needed[c] {
			needed[c] = true
			total++
		}
	}
	all := make([]int, 0, total)
	byRank := make([][]int, p.Ranks())
	for k := range byRank {
		from := len(all)
		klo, khi := p.Range(k)
		for c := klo; c < khi; c++ {
			if needed[c] {
				all = append(all, c)
			}
		}
		if len(all) > from {
			byRank[k] = all[from:len(all):len(all)]
		}
	}
	return byRank
}

// BuildAll computes the halo plans of every rank from the full matrix. This
// is the offline (setup-time) construction used by harnesses and tests; the
// distributed equivalent is BuildSymbolic.
func BuildAll(a *sparse.CSR, p partition.Partition) []*HaloPlan {
	n := p.Ranks()
	plans := make([]*HaloPlan, n)
	needs := make([][][]int, n) // needs[k][i] = indices rank k needs from rank i
	for k := 0; k < n; k++ {
		lo, hi := p.Range(k)
		block := a.RowBlock(lo, hi)
		needs[k] = NeedSets(block, p, k)
	}
	for i := 0; i < n; i++ {
		pl := &HaloPlan{
			P:        p,
			Rank:     i,
			SendTo:   make([][]int, n),
			RecvFrom: make([][]int, n),
		}
		for k := 0; k < n; k++ {
			if k == i {
				continue
			}
			pl.SendTo[k] = needs[k][i]
			pl.RecvFrom[k] = needs[i][k]
		}
		plans[i] = pl
	}
	return plans
}

// symbolicTag is the message tag of the symbolic-phase need exchange.
const symbolicTag = 1<<23 + 101

// BuildSymbolic computes this rank's halo plan with a distributed symbolic
// phase, the way PETSc builds its generalized scatter: each rank derives its
// needs from its own static row block and exchanges need lists with every
// other rank. Replacement nodes rerun this after a failure to rebuild the
// (static) plan without any checkpointed dynamic data.
func BuildSymbolic(c *cluster.Comm, rows *sparse.CSR, p partition.Partition) (*HaloPlan, error) {
	if p.Ranks() != c.Size() {
		return nil, fmt.Errorf("commplan: partition has %d ranks, cluster has %d", p.Ranks(), c.Size())
	}
	rank := c.Rank()
	needs := NeedSets(rows, p, rank)
	pl := &HaloPlan{
		P:        p,
		Rank:     rank,
		SendTo:   make([][]int, c.Size()),
		RecvFrom: make([][]int, c.Size()),
	}
	for k := 0; k < c.Size(); k++ {
		if k == rank {
			continue
		}
		if err := c.Send(cluster.CatOther, k, symbolicTag, nil, needs[k]); err != nil {
			return nil, err
		}
	}
	for k := 0; k < c.Size(); k++ {
		if k == rank {
			continue
		}
		m, err := c.Recv(k, symbolicTag)
		if err != nil {
			return nil, err
		}
		pl.SendTo[k] = m.I
		pl.RecvFrom[k] = needs[k]
	}
	return pl, nil
}

// GhostIndices returns the sorted list of all external global indices this
// rank receives during SpMV: the concatenation of RecvFrom in rank order,
// each list sorted and the ranks' ranges ascending. The position of an index
// in this list is its ghost slot in the localised matrix.
func (pl *HaloPlan) GhostIndices() []int {
	return slices.Concat(pl.RecvFrom...)
}

// Multiplicity returns m_i(s) for every element of this rank's block,
// indexed by local offset: the number of distinct other ranks the element is
// sent to during SpMV (Eqn. 3).
func (pl *HaloPlan) Multiplicity() []int {
	lo, hi := pl.P.Range(pl.Rank)
	m := make([]int, hi-lo)
	for k, idx := range pl.SendTo {
		if k == pl.Rank {
			continue
		}
		for _, g := range idx {
			m[g-lo]++
		}
	}
	return m
}

// Validate cross-checks a set of plans for global consistency: rank i's
// SendTo[k] must equal rank k's RecvFrom[i]. Used in tests and after the
// symbolic rebuild.
func Validate(plans []*HaloPlan) error {
	for i, pi := range plans {
		for k, pk := range plans {
			if i == k {
				continue
			}
			a, b := pi.SendTo[k], pk.RecvFrom[i]
			if len(a) != len(b) {
				return fmt.Errorf("commplan: S_%d%d length mismatch (%d vs %d)", i, k, len(a), len(b))
			}
			for x := range a {
				if a[x] != b[x] {
					return fmt.Errorf("commplan: S_%d%d element mismatch at %d", i, k, x)
				}
			}
		}
	}
	return nil
}
