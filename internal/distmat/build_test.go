package distmat

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/matgen"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// referenceKernels is what NewMatrix's kernel build has to produce, derived
// the slow, obvious way from the static row block the test holds itself (the
// matrix keeps no copy of it): discover the ghost columns into a set, sort
// them, look every column up in a map, localise the whole row block, then
// split the localised copy by `col < bs`, growing every array by append. The
// answers the matrix derives from its split — OwnBlock, Diag, GhostProduct —
// are computed from the global-column rows directly.
type referenceKernels struct {
	ghost              []int
	interior, boundary *sparse.CSR
	intRows, bndRows   []int
	sendLoc, sendPos   [][]int
	recvPos, recvDst   [][]int
	ghostPos           map[int]int
	ownBlock           *sparse.CSR
	diag               []float64
	// ghostIn / ghostLive / ghostProduct: y after GhostProduct(y, ghostIn,
	// 2, 1, ghostLive) on a seeded y. ghostIn holds two columns slot-major,
	// column 0 NaN, so a read of the wrong column or a dead slot shows.
	ghostIn      []float64
	ghostLive    []bool
	ghostProduct []float64
}

// ghostProductSeed is the y GhostProduct accumulates into: -0 on even rows,
// so a row that adds an exact +0 shows up in the bits.
func ghostProductSeed(n int) []float64 {
	y := make([]float64, n)
	for i := range y {
		y[i] = math.Copysign(0, -1)
		if i%2 == 1 {
			y[i] = math.Sin(float64(i))
		}
	}
	return y
}

func buildReference(m *Matrix, rows *sparse.CSR) *referenceKernels {
	lo, hi := m.P.Range(m.Pos)
	bs := hi - lo
	ref := &referenceKernels{ghostPos: map[int]int{}}
	ref.ghost = exteriorColumns(rows, lo, hi)
	ref.ghostIn, ref.ghostLive = make([]float64, 2*len(ref.ghost)), make([]bool, len(ref.ghost))
	for pos, g := range ref.ghost {
		ref.ghostPos[g] = pos
		ref.ghostIn[2*pos], ref.ghostIn[2*pos+1] = math.NaN(), math.Cos(float64(g))
		// A survivor-owned subset: the rest contributes nothing.
		ref.ghostLive[pos] = pos%3 != 1
	}
	local := rows.Clone()
	local.Cols = bs + len(ref.ghost)
	for k, c := range rows.Col {
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
	}
	// OwnBlock, Diag and GhostProduct as they read the global-column row
	// block before the split became its only copy.
	ref.ownBlock = &sparse.CSR{Rows: rows.Rows, Cols: bs, RowPtr: make([]int, rows.Rows+1)}
	ref.diag = make([]float64, rows.Rows)
	ref.ghostProduct = ghostProductSeed(rows.Rows)
	nnz := 0
	for _, c := range rows.Col {
		if c >= lo && c < hi {
			nnz++
		}
	}
	ref.ownBlock.Col, ref.ownBlock.Val = make([]int, 0, nnz), make([]float64, 0, nnz)
	for i := 0; i < rows.Rows; i++ {
		cols, vals := rows.Row(i)
		var s float64
		external := false
		for t, c := range cols {
			switch {
			case c >= lo && c < hi:
				ref.ownBlock.Col = append(ref.ownBlock.Col, c-lo)
				ref.ownBlock.Val = append(ref.ownBlock.Val, vals[t])
				if c == lo+i {
					ref.diag[i] = vals[t]
				}
			default:
				external = true
				if pos := ref.ghostPos[c]; ref.ghostLive[pos] {
					s += vals[t] * ref.ghostIn[2*pos+1]
				}
			}
		}
		if external {
			ref.ghostProduct[i] += s
		}
		ref.ownBlock.RowPtr[i+1] = len(ref.ownBlock.Col)
	}
	ref.sendLoc = make([][]int, len(m.sendLists))
	ref.sendPos = make([][]int, len(m.sendLists))
	for k, idx := range m.sendLists {
		for t, g := range idx {
			ref.sendLoc[k] = append(ref.sendLoc[k], g-lo)
			ref.sendPos[k] = append(ref.sendPos[k], t)
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

// unplan expands per-peer copy plans back into element lists in source
// order (the order of the reference lists): element i of peer k copies
// src[k][i] to dst[k][i].
func unplan(plans []copyList) (src, dst [][]int) {
	src, dst = make([][]int, len(plans)), make([][]int, len(plans))
	for k, l := range plans {
		var pairs [][2]int
		for _, r := range l.runs {
			for i := range r.n {
				pairs = append(pairs, [2]int{r.src + i, r.dst + i})
			}
		}
		for i := range l.src {
			pairs = append(pairs, [2]int{l.src[i], l.dst[i]})
		}
		slices.SortFunc(pairs, func(a, b [2]int) int { return a[0] - b[0] })
		for _, p := range pairs {
			src[k], dst[k] = append(src[k], p[0]), append(dst[k], p[1])
		}
	}
	return src, dst
}

// diff names the first structure of m that is not, element for element, the
// reference's ("" when all are). The copy plans are compared as the element
// lists they expand to. nil and empty compare equal: a list nobody
// appended to and an array counted at zero are the same structure. OwnBlock
// is held to reflect.DeepEqual (it is what the preconditioners factor), Diag
// and GhostProduct to the bit.
func (ref *referenceKernels) diff(m *Matrix) string {
	lists := func(a, b [][]int) bool { return slices.EqualFunc(a, b, slices.Equal[[]int]) }
	csr := func(a, b *sparse.CSR) bool {
		return a.Rows == b.Rows && a.Cols == b.Cols && slices.Equal(a.RowPtr, b.RowPtr) &&
			slices.Equal(a.Col, b.Col) && slices.Equal(a.Val, b.Val)
	}
	bits := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	ghostProduct := ghostProductSeed(len(ref.ghostProduct))
	m.GhostProduct(ghostProduct, ref.ghostIn, 2, 1, ref.ghostLive)
	spans := true
	for r, need := range m.Plan.RecvFrom {
		lo, hi := m.GhostSpan(r)
		spans = spans && slices.Equal(ref.ghost[lo:hi], need)
	}
	sendLoc, sendPos := unplan(m.sendPlan)
	recvPos, recvDst := unplan(m.recvPlan)
	for _, c := range []struct {
		name string
		same bool
	}{
		{"ghost", slices.Equal(m.ghost, ref.ghost) && m.NumGhosts() == len(ref.ghost)},
		{"GhostSpan", spans},
		{"width-1 input length", len(m.input(1)) == ref.interior.Cols},
		{"Interior", csr(m.split.Interior, ref.interior)},
		{"Boundary", csr(m.split.Boundary, ref.boundary)},
		{"IntRows", slices.Equal(m.split.IntRows, ref.intRows)},
		{"BndRows", slices.Equal(m.split.BndRows, ref.bndRows)},
		{"send plan (own block)", lists(sendLoc, ref.sendLoc)},
		{"send plan (payload)", lists(sendPos, ref.sendPos)},
		{"receive plan (payload)", lists(recvPos, ref.recvPos)},
		{"receive plan (ghost slots)", lists(recvDst, ref.recvDst)},
		{"OwnBlock", reflect.DeepEqual(m.OwnBlock(), ref.ownBlock)},
		{"Diag", bits(m.Diag(), ref.diag)},
		{"GhostProduct", bits(ghostProduct, ref.ghostProduct)},
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
// its counting pass and fill pass equals the reference build, and OwnBlock,
// Diag and GhostProduct, read off the split, equal the same answers computed
// from the row block, on the benchmark workloads' generators and the
// hand-made corner patterns, with and without redundancy under the paper's
// Eqn. 5 neighbour backups.
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
			t.Run(fmt.Sprintf("%s/phi%d/neighbor(eqn5)", name, phi), func(t *testing.T) {
				p := partition.NewBlockRow(pb.a.Rows, pb.ranks)
				runSPMD(t, pb.ranks, func(c *cluster.Comm) error {
					e := WorldEnv(c)
					lo, hi := p.Range(e.Pos)
					rows := pb.a.RowBlock(lo, hi)
					m, err := NewMatrix(e, rows, p, phi, 0)
					if err != nil {
						return err
					}
					ref := buildReference(m, rows)
					if d := ref.diff(m); d != "" {
						return fmt.Errorf("%s differs from the reference build", d)
					}
					return nil
				})
			})
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
