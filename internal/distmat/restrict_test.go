package distmat

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/matgen"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// rebuiltSubsystem is how the reconstruction subsystem operator was built
// before Restrict: extract A_{If,If} from the rank's static row block rows
// (global columns; the test holds it, m keeps no copy) with renumbered
// columns and run the full distributed construction (symbolic exchange,
// localisation, kernel plans) over the subgroup. Kept as the reference the
// restricted view must match bit for bit.
func rebuiltSubsystem(sub *Env, m *Matrix, rows *sparse.CSR, ctx int) (*Matrix, error) {
	sizes := make([]int, sub.Size())
	var ifIdx []int
	for t, f := range sub.Members {
		lo, hi := m.P.Range(f)
		sizes[t] = hi - lo
		for g := lo; g < hi; g++ {
			ifIdx = append(ifIdx, g)
		}
	}
	all := make([]int, rows.Rows)
	for i := range all {
		all[i] = i
	}
	return NewMatrix(sub, rows.Submatrix(all, ifIdx), partition.FromSizes(sizes), 0, ctx)
}

// workloadProblems are the benchmark workloads' generators at the given
// scale (tiny = the bench's smoke sizes).
func workloadProblems(tiny bool) map[string]*sparse.CSR {
	if tiny {
		return map[string]*sparse.CSR{
			"poisson":    matgen.Poisson2D(16, 16),
			"circuit":    matgen.CircuitLike(600, 2.9, 0.35, 3),
			"elasticity": matgen.Elasticity3D(6, 6, 6, 27, 8),
		}
	}
	return map[string]*sparse.CSR{
		"poisson":    matgen.Poisson2D(64, 64),
		"circuit":    matgen.CircuitLike(12000, 2.9, 0.35, 3),
		"elasticity": matgen.Elasticity3D(14, 14, 14, 27, 8),
	}
}

// TestRestrictMatchesRebuiltSubsystem: the restricted view's MatVec and
// width-3 MatMat equal, bit for bit, the same products on the operator
// rebuilt from scratch over the subgroup. (That building the view sends
// nothing is pinned where a whole run's counters can be compared:
// core.TestEpisodeSendsNoSetupMessages.)
func TestRestrictMatchesRebuiltSubsystem(t *testing.T) {
	const ranks, phi, width = 8, 3, 3
	failedSets := [][]int{{3}, {2, 3, 4}, {0, 6, 7}, {1, 4, 6}, {0, 1, 2, 3, 4, 5, 6}}
	for name, a := range workloadProblems(true) {
		p := partition.NewBlockRow(a.Rows, ranks)
		for _, members := range failedSets {
			name, a, members := name, a, members
			t.Run(fmt.Sprintf("%s/%v", name, members), func(t *testing.T) {
				runSPMD(t, ranks, func(c *cluster.Comm) error {
					e := WorldEnv(c)
					lo, hi := p.Range(e.Pos)
					rows := a.RowBlock(lo, hi)
					parent, err := NewMatrix(e, rows, p, phi, 0)
					if err != nil {
						return err
					}
					member := false
					for _, f := range members {
						member = member || f == e.Pos
					}
					if !member {
						return nil
					}
					// A per-solve fork, as a session's episode holds.
					m := parent.Fork()
					sub, err := GroupEnv(c, members, 7)
					if err != nil {
						return err
					}
					ref, err := rebuiltSubsystem(sub, m, rows, 8)
					if err != nil {
						return err
					}
					view, err := m.Restrict(sub, 7)
					if err != nil {
						return err
					}
					if !view.P.Equal(ref.P) || view.Pos != ref.Pos {
						return fmt.Errorf("view lives on %v pos %d, rebuilt on %v pos %d", view.P, view.Pos, ref.P, ref.Pos)
					}
					rng := rand.New(rand.NewSource(int64(100 + e.Pos)))
					x := make([]Vector, width)
					for j := range x {
						x[j] = NewVector(view.P, view.Pos)
						for i := range x[j].Local {
							x[j].Local[i] = rng.NormFloat64()
						}
					}
					product := func(mat *Matrix) ([]Vector, error) {
						y := make([]Vector, width+1)
						for j := range y {
							y[j] = NewVector(view.P, view.Pos)
						}
						if err := mat.MatVec(sub, y[0], x[0], -1); err != nil {
							return nil, err
						}
						return y, mat.MatMat(sub, y[1:], x, -1)
					}
					got, err := product(view)
					if err != nil {
						return err
					}
					want, err := product(ref)
					if err != nil {
						return err
					}
					for j := range want {
						for i := range want[j].Local {
							if math.Float64bits(got[j].Local[i]) != math.Float64bits(want[j].Local[i]) {
								return fmt.Errorf("pos %d product %d row %d: view %x, rebuilt %x",
									view.Pos, j, i, got[j].Local[i], want[j].Local[i])
							}
						}
					}
					return nil
				})
			})
		}
	}
}

// TestRestrictRejectsNonMember: the view exists only on the subgroup.
func TestRestrictRejectsNonMember(t *testing.T) {
	a := matgen.Poisson2D(8, 8)
	const ranks = 4
	p := partition.NewBlockRow(a.Rows, ranks)
	runSPMD(t, ranks, func(c *cluster.Comm) error {
		e := WorldEnv(c)
		lo, hi := p.Range(e.Pos)
		m, err := NewMatrix(e, a.RowBlock(lo, hi), p, 0, 0)
		if err != nil {
			return err
		}
		if e.Pos != 0 {
			return nil
		}
		// Rank 0 holds an Env of a group it is not part of (Pos -1).
		outsider := &Env{C: c, Members: []int{1, 2}, Pos: -1}
		if _, err := m.Restrict(outsider, 7); err == nil {
			return fmt.Errorf("Restrict accepted a non-member")
		}
		return nil
	})
}

// exteriorColumns lists, ascending, the columns outside [lo, hi) that rows
// stores: the ghost list NewMatrix's symbolic phase arrives at.
func exteriorColumns(rows *sparse.CSR, lo, hi int) []int {
	seen := map[int]bool{}
	for _, c := range rows.Col {
		if c < lo || c >= hi {
			seen[c] = true
		}
	}
	ghost := make([]int, 0, len(seen))
	for c := range seen {
		ghost = append(ghost, c)
	}
	sort.Ints(ghost)
	return ghost
}

// TestOwnBlockMatchesSubmatrix: the own block read off the localised split
// is exactly the CSR the hash-map Submatrix selection makes of the static row
// block, on the three workload problems.
func TestOwnBlockMatchesSubmatrix(t *testing.T) {
	const ranks = 8
	for name, a := range workloadProblems(false) {
		p := partition.NewBlockRow(a.Rows, ranks)
		for pos := 0; pos < ranks; pos++ {
			lo, hi := p.Range(pos)
			block := a.RowBlock(lo, hi)
			ghost := exteriorColumns(block, lo, hi)
			m := &Matrix{P: p, Pos: pos, ghost: ghost, split: sparse.SplitLocalize(block, lo, hi, ghost)}
			rows := make([]int, hi-lo)
			cols := make([]int, hi-lo)
			for i := range rows {
				rows[i], cols[i] = i, lo+i
			}
			if got, want := m.OwnBlock(), block.Submatrix(rows, cols); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s pos %d: OwnBlock differs from Submatrix over the own range", name, pos)
			}
		}
	}
}
