package distmat

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/matgen"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// TestQuickOverlapRowPartitionProperty: for random matrices distributed over
// random rank counts, every rank's interior/boundary row split must cover
// its local rows exactly once with disjoint sets, interior rows must read
// no ghost columns, and boundary rows must read at least one — the
// structural invariant the communication-hiding schedule rests on.
func TestQuickOverlapRowPartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 8; trial++ {
		n := 40 + rng.Intn(200)
		a := matgen.BandedRandom(n, 1+rng.Intn(12), 3+4*rng.Float64(), int64(trial))
		ranks := 1 + rng.Intn(6)
		p := partition.NewBlockRow(n, ranks)
		runSPMD(t, ranks, func(c *cluster.Comm) error {
			e := WorldEnv(c)
			lo, hi := p.Range(e.Pos)
			m, err := NewMatrix(e, a.RowBlock(lo, hi), p, 0, 0)
			if err != nil {
				return err
			}
			bs := hi - lo
			seen := make([]int, bs)
			for _, i := range m.split.IntRows {
				seen[i]++
			}
			for _, i := range m.split.BndRows {
				seen[i] += 10
			}
			for i, v := range seen {
				if v != 1 && v != 10 {
					return fmt.Errorf("trial %d rank %d: local row %d covered with code %d, want exactly one side",
						trial, e.Pos, i, v)
				}
			}
			ni, nb := m.InteriorRows()
			if ni+nb != bs {
				return fmt.Errorf("trial %d rank %d: %d interior + %d boundary != %d local rows",
					trial, e.Pos, ni, nb, bs)
			}
			for si := 0; si < m.split.Interior.Rows; si++ {
				cols, _ := m.split.Interior.Row(si)
				for _, col := range cols {
					if col >= bs {
						return fmt.Errorf("trial %d rank %d: interior row %d reads ghost column %d",
							trial, e.Pos, m.split.IntRows[si], col)
					}
				}
			}
			for si := 0; si < m.split.Boundary.Rows; si++ {
				cols, _ := m.split.Boundary.Row(si)
				touchesGhost := false
				for _, col := range cols {
					if col >= bs {
						touchesGhost = true
					}
				}
				if !touchesGhost {
					return fmt.Errorf("trial %d rank %d: boundary row %d reads no ghost column",
						trial, e.Pos, m.split.BndRows[si])
				}
			}
			return nil
		})
	}
}

// TestQuickMatVecMatchesSerial: the communication-hiding MatVec, and MatMat
// at widths 3 and 8, equal the global serial CSR.MulVec of every column bit
// for bit, with and without retention, across several random systems on the
// in-process and chaos fabrics — and so does A_{If,If} as Restrict
// assembles it from two members' matrices, which must drop every
// non-member column, against the serial product of the principal
// submatrix. The oracle shares no code with the interior/boundary split.
func TestQuickMatVecMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	viewMembers := []int{1, 2}
	const viewProducts = 3
	for _, trName := range []string{cluster.TransportChan, cluster.TransportChaos} {
		for trial := 0; trial < 3; trial++ {
			n := 60 + rng.Intn(120)
			a := matgen.BandedRandom(n, 2+rng.Intn(9), 4, int64(100+trial))
			const ranks = 4
			phi := trial % 3 // 0 exercises the no-retention path
			p := partition.NewBlockRow(n, ranks)
			xFull := make([][]float64, 8)
			for j := range xFull {
				xFull[j] = make([]float64, n)
				for i := range xFull[j] {
					xFull[j][i] = rng.NormFloat64()
				}
			}
			// out files every product as a full-length vector: MatVec, the
			// columns of MatMat at width 3 and 8, then the assembled
			// A_{If,If}'s products (zero outside the members' rows).
			out := make([][]float64, 1+3+8+viewProducts)
			for j := range out {
				out[j] = make([]float64, n)
			}
			tr, err := cluster.NewTransport(trName, 7)
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			members := make([]*Matrix, len(viewMembers))
			rt := cluster.New(ranks, cluster.WithTransport(tr))
			err = rt.Run(func(c *cluster.Comm) error {
				e := WorldEnv(c)
				lo, hi := p.Range(e.Pos)
				m, err := NewMatrix(e, a.RowBlock(lo, hi), p, phi, 0)
				if err != nil {
					return err
				}
				// products runs width k on mat over env and files the
				// results from out[at].
				products := func(mat *Matrix, env *Env, k, at int) error {
					xs, ys := make([]Vector, k), make([]Vector, k)
					for j := range xs {
						xs[j] = NewVector(mat.P, mat.Pos)
						copy(xs[j].Local, xFull[j][lo:hi])
						ys[j] = NewVector(mat.P, mat.Pos)
					}
					for iter := 0; iter < 3; iter++ {
						if err := mat.MatMat(env, ys, xs, iter); err != nil {
							return err
						}
					}
					for j := range ys {
						copy(out[at+j][lo:hi], ys[j].Local)
					}
					return nil
				}
				at := 0
				for _, k := range []int{1, 3, 8} {
					f := m.Fork()
					f.SetBlockWidth(k)
					if err := products(f, e, k, at); err != nil {
						return err
					}
					at += k
				}
				if t := slices.Index(viewMembers, e.Pos); t >= 0 {
					mu.Lock()
					members[t] = m.Fork()
					mu.Unlock()
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			// The members are adjacent: their rows, and their entries of x,
			// are the range [vlo, vhi).
			vlo, _ := p.Range(viewMembers[0])
			_, vhi := p.Range(viewMembers[len(viewMembers)-1])
			view, err := Restrict(members)
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < viewProducts; j++ {
				view.MulMatScatter(out[1+3+8+j][vlo:vhi], xFull[j][vlo:vhi], nil, 1)
			}

			// The oracle: the whole matrix for the world products, the
			// principal submatrix A_{If, If} over the members' rows for the
			// view's.
			in := make([]int, vhi-vlo)
			for i := range in {
				in[i] = vlo + i
			}
			principal := a.Submatrix(in, in)
			check := func(j int, mat *sparse.CSR, x []float64, rlo int) {
				t.Helper()
				want := make([]float64, mat.Rows)
				mat.MulVec(want, x)
				got := out[j][rlo : rlo+mat.Rows]
				if !slices.ContainsFunc(got, func(v float64) bool { return v != 0 }) {
					t.Fatalf("%s trial %d: product %d is all zero", trName, trial, j)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s trial %d product %d: y[%d] = %x, serial MulVec %x",
							trName, trial, j, rlo+i, got[i], want[i])
					}
				}
			}
			at := 0
			for _, k := range []int{1, 3, 8} {
				for j := 0; j < k; j++ {
					check(at+j, a, xFull[j], 0)
				}
				at += k
			}
			for j := 0; j < viewProducts; j++ {
				check(at+j, principal, xFull[j][vlo:vhi], vlo)
			}
		}
	}
}
