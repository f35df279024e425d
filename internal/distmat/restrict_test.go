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

// rebuiltSubsystem is the reconstruction subsystem operator built from
// scratch and applied: A_{If,If} extracted from a with renumbered columns and
// run through the full distributed construction (symbolic exchange,
// localisation, kernel plans) on a runtime of its own, one rank per member in
// members' order. It returns each member's block of the products with its
// blocks of the inputs, xs[t][j] member t's block of input j. Kept as the
// reference the operator Restrict assembles must match bit for bit.
func rebuiltSubsystem(a *sparse.CSR, p partition.Partition, members []int, xs [][][]float64) ([][][]float64, error) {
	sizes := make([]int, len(members))
	var ifIdx []int
	for t, f := range members {
		lo, hi := p.Range(f)
		sizes[t] = hi - lo
		for g := lo; g < hi; g++ {
			ifIdx = append(ifIdx, g)
		}
	}
	sub := partition.FromSizes(sizes)
	ys := make([][][]float64, len(members))
	err := cluster.New(len(members)).Run(func(c *cluster.Comm) error {
		e := WorldEnv(c)
		lo, hi := p.Range(members[e.Pos])
		all := make([]int, hi-lo)
		for i := range all {
			all[i] = i
		}
		ref, err := NewMatrix(e, a.RowBlock(lo, hi).Submatrix(all, ifIdx), sub, 0, 0)
		if err != nil {
			return err
		}
		ys[e.Pos] = make([][]float64, len(xs[e.Pos]))
		for j, x := range xs[e.Pos] {
			y := NewVector(sub, e.Pos)
			if err := ref.MatVec(e, y, Vector{P: sub, Pos: e.Pos, Local: x}, -1); err != nil {
				return err
			}
			ys[e.Pos][j] = y.Local
		}
		return nil
	})
	return ys, err
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

// TestRestrictMatchesRebuiltSubsystem: A restricted to the failed blocks,
// A_{If,If} — assembled by Restrict in one process from the members' own
// matrices, with no messages — multiplies bit for bit as the operator
// rebuilt from scratch on a runtime of the members alone, block for block,
// product after product. (That the x-system sends no setup message is
// pinned where a whole run's counters can be compared:
// core.TestEpisodeSendsNoSetupMessages.)
func TestRestrictMatchesRebuiltSubsystem(t *testing.T) {
	const ranks, phi, products = 8, 3, 3
	failedSets := [][]int{{3}, {2, 3, 4}, {0, 6, 7}, {1, 4, 6}, {0, 1, 2, 3, 4, 5, 6}}
	for name, a := range workloadProblems(true) {
		p := partition.NewBlockRow(a.Rows, ranks)
		parents := make([]*Matrix, ranks)
		runSPMD(t, ranks, func(c *cluster.Comm) error {
			e := WorldEnv(c)
			lo, hi := p.Range(e.Pos)
			m, err := NewMatrix(e, a.RowBlock(lo, hi), p, phi, 0)
			parents[e.Pos] = m
			return err
		})
		for _, members := range failedSets {
			name, a, members := name, a, members
			t.Run(fmt.Sprintf("%s/%v", name, members), func(t *testing.T) {
				// Per member, by its position in members: a per-solve fork
				// of its matrix, as a session's episode holds, and its
				// blocks of the inputs.
				mats := make([]*Matrix, len(members))
				xs := make([][][]float64, len(members))
				for b, f := range members {
					mats[b] = parents[f].Fork()
					rng := rand.New(rand.NewSource(int64(100 + f)))
					xs[b] = make([][]float64, products)
					for j := range xs[b] {
						xs[b][j] = make([]float64, p.Size(f))
						for i := range xs[b][j] {
							xs[b][j][i] = rng.NormFloat64()
						}
					}
				}
				want, err := rebuiltSubsystem(a, p, members, xs)
				if err != nil {
					t.Fatal(err)
				}
				op, err := Restrict(mats)
				if err != nil {
					t.Fatal(err)
				}
				for j := 0; j < products; j++ {
					var x []float64
					for b := range xs {
						x = append(x, xs[b][j]...)
					}
					y := make([]float64, op.Rows)
					op.MulMatScatter(y, x, nil, 1)
					for b, at := range memberOffsets(mats) {
						for i, w := range want[b][j] {
							if math.Float64bits(y[at+i]) != math.Float64bits(w) {
								t.Fatalf("rank %d product %d row %d: Restrict %x, rebuilt %x",
									members[b], j, i, y[at+i], w)
							}
						}
					}
				}
			})
		}
	}
}

// memberOffsets returns where each member's rows start in Restrict's layout.
func memberOffsets(mats []*Matrix) []int {
	off, at := make([]int, len(mats)), 0
	for t, m := range mats {
		off[t] = at
		at += m.blockSize()
	}
	return off
}

// perBlockProduct is y = A_{If,If} x formed block by block, as the x-system
// formed it before its operator was assembled: member t's own interior and
// boundary kernels on an input of its block, the other members' entries in
// their ghost slots and zero in every non-member's.
func perBlockProduct(mats []*Matrix, y, x [][]float64) {
	for t, m := range mats {
		bs := m.blockSize()
		in := make([]float64, bs+len(m.ghost))
		copy(in, x[t])
		for u, f := range mats {
			if u == t {
				continue
			}
			slot, _ := m.GhostSpan(f.Pos)
			flo, _ := m.P.Range(f.Pos)
			for i, g := range m.Plan.RecvFrom[f.Pos] {
				in[bs+slot+i] = x[u][g-flo]
			}
		}
		m.split.Interior.MulMatScatter(y[t], in, m.split.IntRows, 1)
		m.split.Boundary.MulMatScatter(y[t], in, m.split.BndRows, 1)
	}
}

// TestRestrictMatchesPerBlockProduct: the assembled A_{If,If} drops the
// products with the zeroed non-member ghost slots, and its product is the
// per-block one bit for bit, on the three workload generators at bench size
// and 1, 2 and 3 members, adjacent or not. Every fifth input is a signed
// zero, so rows whose kept terms are all zero are covered.
func TestRestrictMatchesPerBlockProduct(t *testing.T) {
	const ranks, phi = 8, 3
	memberSets := [][]int{{5}, {3, 4}, {0, 7}, {3, 4, 5}, {1, 4, 6}}
	for name, a := range workloadProblems(false) {
		p := partition.NewBlockRow(a.Rows, ranks)
		mats := make([]*Matrix, ranks)
		runSPMD(t, ranks, func(c *cluster.Comm) error {
			e := WorldEnv(c)
			lo, hi := p.Range(e.Pos)
			m, err := NewMatrix(e, a.RowBlock(lo, hi), p, phi, 0)
			mats[e.Pos] = m
			return err
		})
		rng := rand.New(rand.NewSource(5))
		for _, members := range memberSets {
			sub := make([]*Matrix, len(members))
			x, y := make([][]float64, len(members)), make([][]float64, len(members))
			var flat []float64
			for t, f := range members {
				sub[t] = mats[f]
				x[t], y[t] = make([]float64, p.Size(f)), make([]float64, p.Size(f))
				for i := range x[t] {
					switch i % 5 {
					case 0:
						x[t][i] = math.Copysign(0, rng.NormFloat64())
					default:
						x[t][i] = rng.NormFloat64()
					}
				}
				flat = append(flat, x[t]...)
			}
			op, err := Restrict(sub)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]float64, op.Rows)
			op.MulMatScatter(got, flat, nil, 1)
			perBlockProduct(sub, y, x)
			for b, at := range memberOffsets(sub) {
				for i, w := range y[b] {
					if math.Float64bits(got[at+i]) != math.Float64bits(w) {
						t.Fatalf("%s %v: rank %d row %d: Restrict %x, per block %x", name, members, members[b], i, got[at+i], w)
					}
				}
			}
		}
	}
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
