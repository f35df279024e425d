package distmat

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/commplan"
	"repro/internal/matgen"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// referenceKernels is what NewMatrix's kernel build has to produce, derived
// the slow, obvious way: discover the ghost columns into a set, sort them,
// look every column up in a map, localise the whole row block, then split the
// localised copy by `col < bs`, growing every array by append.
type referenceKernels struct {
	ghost                    []int
	interior, boundary       *sparse.CSR
	intRows, bndRows         []int
	sendLoc                  [][]int
	recvPos, recvDst         [][]int
	ghostRowPtr, ghostRowCol []int
	ghostRowVal              []float64
	ghostPos                 map[int]int
}

func buildReference(m *Matrix) *referenceKernels {
	lo, hi := m.P.Range(m.Pos)
	bs := hi - lo
	ref := &referenceKernels{ghostPos: map[int]int{}, ghostRowPtr: []int{0}}
	ghostSet := map[int]bool{}
	for _, c := range m.Rows.Col {
		if c < lo || c >= hi {
			ghostSet[c] = true
		}
	}
	for g := range ghostSet {
		ref.ghost = append(ref.ghost, g)
	}
	sort.Ints(ref.ghost)
	for pos, g := range ref.ghost {
		ref.ghostPos[g] = pos
	}
	local := m.Rows.Clone()
	local.Cols = bs + len(ref.ghost)
	for k, c := range m.Rows.Col {
		if c >= lo && c < hi {
			local.Col[k] = c - lo
		} else {
			local.Col[k] = bs + ref.ghostPos[c]
		}
	}
	ref.interior = &sparse.CSR{Cols: local.Cols, RowPtr: []int{0}}
	ref.boundary = &sparse.CSR{Cols: local.Cols, RowPtr: []int{0}}
	for i := 0; i < local.Rows; i++ {
		cols, vals := local.Row(i)
		dst := ref.interior
		if slices.ContainsFunc(cols, func(c int) bool { return c >= bs }) {
			dst = ref.boundary
			ref.bndRows = append(ref.bndRows, i)
		} else {
			ref.intRows = append(ref.intRows, i)
		}
		dst.Rows++
		dst.Col = append(dst.Col, cols...)
		dst.Val = append(dst.Val, vals...)
		dst.RowPtr = append(dst.RowPtr, len(dst.Col))

		gcols, gvals := m.Rows.Row(i)
		for t, c := range gcols {
			if c < lo || c >= hi {
				ref.ghostRowCol = append(ref.ghostRowCol, c)
				ref.ghostRowVal = append(ref.ghostRowVal, gvals[t])
			}
		}
		ref.ghostRowPtr = append(ref.ghostRowPtr, len(ref.ghostRowCol))
	}
	ref.sendLoc = make([][]int, len(m.sendLists))
	for k, idx := range m.sendLists {
		for _, g := range idx {
			ref.sendLoc[k] = append(ref.sendLoc[k], g-lo)
		}
	}
	ref.recvPos = make([][]int, len(m.recvLists))
	ref.recvDst = make([][]int, len(m.recvLists))
	for k, idx := range m.recvLists {
		for t, g := range idx {
			if p, ok := ref.ghostPos[g]; ok {
				ref.recvPos[k] = append(ref.recvPos[k], t)
				ref.recvDst[k] = append(ref.recvDst[k], bs+p)
			}
		}
	}
	return ref
}

// diff names the first structure of m that is not, element for element, the
// reference's ("" when all are). nil and empty compare equal: a list nobody
// appended to and an array counted at zero are the same structure.
func (ref *referenceKernels) diff(m *Matrix) string {
	lists := func(a, b [][]int) bool { return slices.EqualFunc(a, b, slices.Equal[[]int]) }
	csr := func(a, b *sparse.CSR) bool {
		return a.Rows == b.Rows && a.Cols == b.Cols && slices.Equal(a.RowPtr, b.RowPtr) &&
			slices.Equal(a.Col, b.Col) && slices.Equal(a.Val, b.Val)
	}
	for _, c := range []struct {
		name string
		same bool
	}{
		{"ghost", slices.Equal(m.ghost, ref.ghost)},
		{"xbuf length", len(m.xbuf) == ref.interior.Cols},
		{"Interior", csr(m.split.Interior, ref.interior)},
		{"Boundary", csr(m.split.Boundary, ref.boundary)},
		{"IntRows", slices.Equal(m.split.IntRows, ref.intRows)},
		{"BndRows", slices.Equal(m.split.BndRows, ref.bndRows)},
		{"sendLoc", lists(m.sendLoc, ref.sendLoc)},
		{"recvPos", lists(m.recvPos, ref.recvPos)},
		{"recvDst", lists(m.recvDst, ref.recvDst)},
		{"ghostRows.RowPtr", slices.Equal(m.ghostRows.RowPtr, ref.ghostRowPtr)},
		{"ghostRows.Col", slices.Equal(m.ghostRows.Col, ref.ghostRowCol)},
		{"ghostRows.Val", slices.Equal(m.ghostRows.Val, ref.ghostRowVal)},
	} {
		if !c.same {
			return c.name
		}
	}
	return ""
}

// edgeCaseProblems are hand-made 4-rank patterns for the corners of the
// kernel build (values are arbitrary, only the pattern matters).
func edgeCaseProblems() map[string]*sparse.CSR {
	build := func(n int, entries [][2]int) *sparse.CSR {
		d := make([]float64, n*n)
		for k, e := range entries {
			d[e[0]*n+e[1]] = 1 + float64(k)
		}
		return sparse.FromDense(n, n, d)
	}
	return map[string]*sparse.CSR{
		// Rank 0 (rows 0-2) reads no other rank's column; row 4 is empty;
		// every row of rank 2 (rows 6-8) reads a ghost column on either side
		// of its own block; rank 3 mixes interior and boundary rows.
		"no-ghost rank, empty row, all-boundary rank": build(12, [][2]int{
			{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 2},
			{3, 3}, {3, 0}, {3, 11}, {5, 5}, {5, 4},
			{6, 2}, {6, 6}, {6, 9}, {7, 7}, {7, 11}, {8, 0}, {8, 8}, {8, 7},
			{9, 9}, {10, 10}, {10, 3}, {10, 2}, {11, 11}, {11, 10},
		}),
		// One row a rank: the own block is a single column.
		"ranks == rows": build(4, [][2]int{
			{0, 0}, {0, 1}, {0, 3}, {1, 0}, {1, 1}, {1, 2}, {2, 1}, {2, 2}, {3, 0}, {3, 3},
		}),
		// Nothing is exchanged at all.
		"block diagonal": build(8, [][2]int{
			{0, 0}, {0, 1}, {1, 1}, {2, 2}, {3, 2}, {3, 3}, {4, 4}, {5, 5}, {5, 4}, {6, 6}, {7, 7}, {7, 6},
		}),
	}
}

// TestOnePassBuildEqualsReference: every kernel structure NewMatrix builds in
// its counting pass and fill pass — and every Restrict view's scatter lists,
// which are computed from ghost offsets — equals the reference build, on the
// benchmark workloads' generators and the hand-made corner patterns, with and
// without redundancy, under both backup strategies.
func TestOnePassBuildEqualsReference(t *testing.T) {
	type problem struct {
		a     *sparse.CSR
		ranks int
	}
	problems := map[string]problem{}
	for name, a := range workloadProblems(true) {
		problems[name] = problem{a, 8}
	}
	for name, a := range edgeCaseProblems() {
		problems[name] = problem{a, 4}
	}
	for name, pb := range problems {
		for _, phi := range []int{0, 3} {
			for _, strat := range []commplan.BackupStrategy{commplan.StrategyNeighbor, commplan.StrategyAdaptive} {
				name, pb, phi, strat := name, pb, phi, strat
				t.Run(fmt.Sprintf("%s/phi%d/%s", name, phi, strat), func(t *testing.T) {
					p := partition.NewBlockRow(pb.a.Rows, pb.ranks)
					runSPMD(t, pb.ranks, func(c *cluster.Comm) error {
						e := WorldEnv(c)
						lo, hi := p.Range(e.Pos)
						m, err := NewMatrixStrategy(e, pb.a.RowBlock(lo, hi), p, phi, 0, strat)
						if err != nil {
							return err
						}
						ref := buildReference(m)
						if d := ref.diff(m); d != "" {
							return fmt.Errorf("%s differs from the reference build", d)
						}
						// Views over this rank and one, two, all other members.
						for _, others := range [][]int{{1}, {1, 2}, {2, pb.ranks - 1}, nil} {
							members := []int{e.Pos}
							for r := 0; r < pb.ranks; r++ {
								if r != e.Pos && (others == nil || slices.Contains(others, (r-e.Pos+pb.ranks)%pb.ranks)) {
									members = append(members, r)
								}
							}
							sort.Ints(members)
							sub := &Env{Members: members, Pos: slices.Index(members, e.Pos)}
							v, err := m.Restrict(sub, 5)
							if err != nil {
								return err
							}
							for t, f := range members {
								var want []int
								for _, g := range m.Plan.RecvFrom[f] {
									want = append(want, hi-lo+ref.ghostPos[g])
								}
								if f == e.Pos {
									want = nil
								}
								if !slices.Equal(v.recvDst[t], want) {
									return fmt.Errorf("view over %v: recvDst[%d] = %v, reference %v",
										members, t, v.recvDst[t], want)
								}
							}
						}
						return nil
					})
				})
			}
		}
	}
}

// BenchmarkNewMatrix is the setup rung of the ladder: one op is one rank-set
// of NewMatrix calls (8 ranks, phi 3) on the repo benchmark's three workload
// matrices — the symbolic exchange, the redundancy protocol and the kernel
// build, without the factorisation engine.Prepare adds on top. B/op and
// allocs/op aggregate over the eight ranks.
func BenchmarkNewMatrix(b *testing.B) {
	const ranks, phi = 8, 3
	for _, bc := range []struct {
		name string
		a    *sparse.CSR
	}{
		{"elasticity14", matgen.Elasticity3D(14, 14, 14, 27, 8)},
		{"circuit12000", matgen.CircuitLike(12000, 2.9, 0.35, 3)},
		{"poisson64", matgen.Poisson2D(64, 64)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			p := partition.NewBlockRow(bc.a.Rows, ranks)
			blocks := make([]*sparse.CSR, ranks)
			for r := range blocks {
				lo, hi := p.Range(r)
				blocks[r] = bc.a.RowBlock(lo, hi)
			}
			b.ReportAllocs()
			b.ResetTimer()
			err := cluster.New(ranks).Run(func(c *cluster.Comm) error {
				e := WorldEnv(c)
				for i := 0; i < b.N; i++ {
					if _, err := NewMatrix(e, blocks[e.Pos], p, phi, 0); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
