package distmat

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/matgen"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// rebuiltSubsystem is the reconstruction subsystem operator built from
// scratch: extract A_{If,If} from the rank's static row block rows (global
// columns; the test holds it, m keeps no copy) with renumbered columns and
// run the full distributed construction (symbolic exchange, localisation,
// kernel plans) over the subgroup. Kept as the reference the assembled
// operator Restrict returns must match bit for bit.
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

// TestRestrictMatchesRebuiltSubsystem: A restricted to the failed blocks,
// A_{If,If} — assembled by Restrict in one process from the members' own
// matrices, with no messages — multiplies bit for bit as the operator
// rebuilt from scratch over the subgroup of members, block for block,
// product after product. (That the x-system sends no setup message is
// pinned where a whole run's counters can be compared:
// core.TestEpisodeSendsNoSetupMessages.)
func TestRestrictMatchesRebuiltSubsystem(t *testing.T) {
	const ranks, phi, products = 8, 3, 3
	failedSets := [][]int{{3}, {2, 3, 4}, {0, 6, 7}, {1, 4, 6}, {0, 1, 2, 3, 4, 5, 6}}
	for name, a := range workloadProblems(true) {
		p := partition.NewBlockRow(a.Rows, ranks)
		for _, members := range failedSets {
			name, a, members := name, a, members
			t.Run(fmt.Sprintf("%s/%v", name, members), func(t *testing.T) {
				// Per member, by its position in members: its matrix, the
				// inputs and the rebuilt operator's products.
				var mu sync.Mutex
				mats := make([]*Matrix, len(members))
				xs := make([][][]float64, len(members))
				want := make([][][]float64, len(members))
				runSPMD(t, ranks, func(c *cluster.Comm) error {
					e := WorldEnv(c)
					lo, hi := p.Range(e.Pos)
					rows := a.RowBlock(lo, hi)
					parent, err := NewMatrix(e, rows, p, phi, 0)
					if err != nil {
						return err
					}
					pos := slices.Index(members, e.Pos)
					if pos < 0 {
						return nil
					}
					sub, err := GroupEnv(c, members, 7)
					if err != nil {
						return err
					}
					ref, err := rebuiltSubsystem(sub, parent, rows, 8)
					if err != nil {
						return err
					}
					rng := rand.New(rand.NewSource(int64(100 + e.Pos)))
					x, y := make([][]float64, products), make([][]float64, products)
					for j := range x {
						xv, yv := NewVector(ref.P, ref.Pos), NewVector(ref.P, ref.Pos)
						for i := range xv.Local {
							xv.Local[i] = rng.NormFloat64()
						}
						if err := ref.MatVec(sub, yv, xv, -1); err != nil {
							return err
						}
						x[j], y[j] = xv.Local, yv.Local
					}
					mu.Lock()
					// A per-solve fork, as a session's episode holds.
					mats[pos], xs[pos], want[pos] = parent.Fork(), x, y
					mu.Unlock()
					return nil
				})
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
