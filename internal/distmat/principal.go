package distmat

import "fmt"

// Principal is the principal submatrix A_{If,If} of a distributed matrix over
// the blocks of a set of ranks If, evaluated in one process with no
// messages: the operator of the reconstruction x-system (paper Alg. 2 line 8)
// on the replacement that solves it for the whole failed set. Each block's
// rows run that rank's own localised split kernel — the interior and boundary
// sweeps of its MatMat at width 1 — on an input buffer whose ghost slots hold
// the other members' entries and zeros for every non-member's. That drops
// A_{If, I\If} from the product while each row's remaining terms accumulate
// in stored order, so block t of a product is bit for bit what member t's own
// SpMV over a subgroup of the members computes.
//
// Like Fork it builds nothing that is a function of the matrix: the kernels
// and halo lists are the members' own and are only read, so a Principal may
// run beside the members' own solves. It owns its input buffers and copy
// plans: one product at a time.
type Principal struct {
	blocks []*Matrix
	in     [][]float64   // per member: own block, then ghost slots
	fill   [][]ghostFill // per member: the other members' entries it reads
}

// ghostFill copies the entries a member reads of member from into the
// member's ghost slots.
type ghostFill struct {
	from int
	plan copyList
}

// NewPrincipal returns the principal submatrix over the given members' local
// parts of one distributed matrix, in ascending rank order. The matrices must
// have been built on the world Env, so that their positions are the ranks
// their halo lists are indexed by; they may be per-solve forks or the session
// templates they were forked from.
func NewPrincipal(blocks []*Matrix) (*Principal, error) {
	if len(blocks) == 0 {
		return nil, fmt.Errorf("distmat: NewPrincipal needs at least one block")
	}
	s := &Principal{
		blocks: blocks,
		in:     make([][]float64, len(blocks)),
		fill:   make([][]ghostFill, len(blocks)),
	}
	for t, m := range blocks {
		if t > 0 && (m.Pos <= blocks[t-1].Pos || !m.P.Equal(blocks[0].P)) {
			return nil, fmt.Errorf("distmat: NewPrincipal: block %d (position %d) is out of order or on another partition", t, m.Pos)
		}
		s.in[t] = make([]float64, m.blockSize()+len(m.ghost))
		for u, f := range blocks {
			need := m.Plan.RecvFrom[f.Pos]
			if u == t || len(need) == 0 {
				continue
			}
			flo, _ := m.P.Range(f.Pos)
			slot, _ := m.GhostSpan(f.Pos)
			base := m.blockSize() + slot
			s.fill[t] = append(s.fill[t], ghostFill{from: u,
				plan: newCopyList(len(need), func(i int) (int, int) { return need[i] - flo, base + i })})
		}
	}
	return s, nil
}

// MatVec computes y = A_{If,If} x, x[t] and y[t] being member t's block.
func (s *Principal) MatVec(y, x [][]float64) {
	for t, m := range s.blocks {
		in := s.in[t]
		copy(in, x[t])
		for _, f := range s.fill[t] {
			f.plan.copy(in, x[f.from], 1)
		}
		m.split.Interior.MulMatScatterPar(y[t], in, m.split.IntRows, 1)
		m.split.Boundary.MulMatScatterPar(y[t], in, m.split.BndRows, 1)
	}
}
