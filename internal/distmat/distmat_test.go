package distmat

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/matgen"
	"repro/internal/partition"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// runSPMD runs fn on a fresh cluster of the given size and fails the test on
// error.
func runSPMD(t *testing.T, ranks int, fn func(c *cluster.Comm) error) {
	t.Helper()
	rt := cluster.New(ranks)
	if err := rt.Run(fn); err != nil {
		t.Fatal(err)
	}
}

// distribute splits a full vector into the local block for pos.
func distribute(full []float64, p partition.Partition, pos int) Vector {
	lo, hi := p.Range(pos)
	v := NewVector(p, pos)
	copy(v.Local, full[lo:hi])
	return v
}

func TestMatVecMatchesSequential(t *testing.T) {
	mats := map[string]*sparse.CSR{
		"poisson": matgen.Poisson2D(12, 10),
		"circuit": matgen.CircuitLike(150, 3, 0.4, 3),
		"elastic": matgen.Elasticity3D(4, 3, 3, 15, 4),
	}
	for name, a := range mats {
		for _, ranks := range []int{1, 3, 5} {
			for _, phi := range []int{0, 2} {
				if phi >= ranks {
					continue
				}
				t.Run(fmt.Sprintf("%s/N%d/phi%d", name, ranks, phi), func(t *testing.T) {
					n := a.Rows
					p := partition.NewBlockRow(n, ranks)
					xFull := make([]float64, n)
					for i := range xFull {
						xFull[i] = math.Sin(float64(i)*0.37) + 0.1
					}
					want := make([]float64, n)
					a.MulVec(want, xFull)
					runSPMD(t, ranks, func(c *cluster.Comm) error {
						e := WorldEnv(c)
						lo, hi := p.Range(e.Pos)
						m, err := NewMatrix(e, a.RowBlock(lo, hi), p, phi, 0)
						if err != nil {
							return err
						}
						x := distribute(xFull, p, e.Pos)
						y := NewVector(p, e.Pos)
						if err := m.MatVec(e, y, x, 0); err != nil {
							return err
						}
						for i := range y.Local {
							if math.Abs(y.Local[i]-want[lo+i]) > 1e-12 {
								return fmt.Errorf("pos %d: y[%d]=%v want %v", e.Pos, lo+i, y.Local[i], want[lo+i])
							}
						}
						return nil
					})
				})
			}
		}
	}
}

func TestDotAndNorm(t *testing.T) {
	n := 97
	p := partition.NewBlockRow(n, 4)
	aFull := make([]float64, n)
	bFull := make([]float64, n)
	for i := range aFull {
		aFull[i] = float64(i%7) - 2
		bFull[i] = float64(i%5) + 1
	}
	wantDot := vec.Dot(aFull, bFull)
	wantNrm := vec.Nrm2(aFull)
	runSPMD(t, 4, func(c *cluster.Comm) error {
		e := WorldEnv(c)
		a := distribute(aFull, p, e.Pos)
		b := distribute(bFull, p, e.Pos)
		d, err := Dot(e, a, b)
		if err != nil {
			return err
		}
		if math.Abs(d-wantDot) > 1e-9*math.Abs(wantDot) {
			return fmt.Errorf("Dot = %v, want %v", d, wantDot)
		}
		nm, err := Norm2(e, a)
		if err != nil {
			return err
		}
		if math.Abs(nm-wantNrm) > 1e-9*wantNrm {
			return fmt.Errorf("Norm2 = %v, want %v", nm, wantNrm)
		}
		return nil
	})
}

// TestGather: at widths 1 and 3 position 0 assembles every column and the
// other positions get nil; the gather moves each non-root block once, in one
// message per non-root position — k·(n − n₀) floats on the wire, rank 0's own
// block never — and nothing of solution size travels back out.
func TestGather(t *testing.T) {
	const n, ranks = 31, 5
	p := partition.NewBlockRow(n, ranks)
	for _, k := range []int{1, 3} {
		full := make([][]float64, k)
		for c := range full {
			full[c] = make([]float64, n)
			for i := range full[c] {
				full[c][i] = float64(i*i + 100*c)
			}
		}
		rt := cluster.New(ranks)
		err := rt.Run(func(c *cluster.Comm) error {
			e := WorldEnv(c)
			vs := make([]Vector, k)
			for col := range vs {
				vs[col] = distribute(full[col], p, e.Pos)
			}
			got, err := Gather(e, vs)
			if err != nil {
				return err
			}
			if e.Pos != 0 {
				if got != nil {
					return fmt.Errorf("pos %d received %d columns", e.Pos, len(got))
				}
				return nil
			}
			for col := range full {
				if len(got[col]) != n {
					return fmt.Errorf("column %d has %d entries", col, len(got[col]))
				}
				for i := range full[col] {
					if got[col][i] != full[col][i] {
						return fmt.Errorf("Gather column %d [%d] = %v", col, i, got[col][i])
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		ctrs := rt.Counters()
		if msgs, floats := ctrs.Messages(cluster.CatCollective), ctrs.Floats(cluster.CatCollective); msgs != ranks-1 || floats != int64(k*(n-p.Size(0))) {
			t.Errorf("width %d: gather moved %d messages, %d floats; want %d, %d", k, msgs, floats, ranks-1, k*(n-p.Size(0)))
		}
		if total := ctrs.TotalFloats(); total != ctrs.Floats(cluster.CatCollective) {
			t.Errorf("width %d: %d floats outside the gather", k, total-ctrs.Floats(cluster.CatCollective))
		}
	}
}

// Retention after a resilient MatVec must hold every element each rank was
// sent, and the values must match the true vector.
func TestMatVecRetention(t *testing.T) {
	a := matgen.CircuitLike(120, 3, 0.5, 9)
	const ranks, phi = 4, 2
	p := partition.NewBlockRow(a.Rows, ranks)
	xFull := make([]float64, a.Rows)
	for i := range xFull {
		xFull[i] = float64(i) + 0.25
	}
	runSPMD(t, ranks, func(c *cluster.Comm) error {
		e := WorldEnv(c)
		lo, hi := p.Range(e.Pos)
		m, err := NewMatrix(e, a.RowBlock(lo, hi), p, phi, 0)
		if err != nil {
			return err
		}
		x := distribute(xFull, p, e.Pos)
		y := NewVector(p, e.Pos)
		if err := m.MatVec(e, y, x, 7); err != nil {
			return err
		}
		// Every retained value equals the global vector entry.
		for src := 0; src < ranks; src++ {
			idx := m.Ret.IndicesFrom(src)
			if len(idx) == 0 {
				continue
			}
			vals, err := m.Ret.ValuesFor(7, src, idx)
			if err != nil {
				return err
			}
			for t2, g := range idx {
				if vals[t2] != xFull[g] {
					return fmt.Errorf("retained %v for index %d, want %v", vals[t2], g, xFull[g])
				}
			}
		}
		return nil
	})
}

// Under the Eqn. 5 backup sequence, a resilient SpMV on a scattered
// (circuit-like) pattern returns the exact product, and retention holds the
// true value of every element the redundancy promises to this rank.
func TestMatVecInvariantUnderStrategy(t *testing.T) {
	a := matgen.CircuitLike(240, 3, 0.5, 17)
	const ranks, phi = 6, 2
	p := partition.NewBlockRow(a.Rows, ranks)
	xFull := make([]float64, a.Rows)
	for i := range xFull {
		xFull[i] = math.Cos(float64(i) * 0.23)
	}
	want := make([]float64, a.Rows)
	a.MulVec(want, xFull)

	t.Run("neighbor(eqn5)", func(t *testing.T) {
		runSPMD(t, ranks, func(c *cluster.Comm) error {
			e := WorldEnv(c)
			lo, hi := p.Range(e.Pos)
			m, err := NewMatrix(e, a.RowBlock(lo, hi), p, phi, 0)
			if err != nil {
				return err
			}
			x := distribute(xFull, p, e.Pos)
			y := NewVector(p, e.Pos)
			if err := m.MatVec(e, y, x, 0); err != nil {
				return err
			}
			for i := range y.Local {
				if math.Abs(y.Local[i]-want[lo+i]) > 1e-12 {
					return fmt.Errorf("MatVec wrong at %d", lo+i)
				}
			}
			for src := 0; src < ranks; src++ {
				idx := m.Ret.IndicesFrom(src)
				if len(idx) == 0 {
					continue
				}
				vals, err := m.Ret.ValuesFor(0, src, idx)
				if err != nil {
					return err
				}
				for t2, g := range idx {
					if vals[t2] != xFull[g] {
						return fmt.Errorf("retained value wrong for %d", g)
					}
				}
			}
			return nil
		})
	})
}

// Two resilient MatVecs retain exactly the two most recent generations.
func TestMatVecGenerationEviction(t *testing.T) {
	a := matgen.Poisson2D(8, 8)
	const ranks = 4
	p := partition.NewBlockRow(a.Rows, ranks)
	runSPMD(t, ranks, func(c *cluster.Comm) error {
		e := WorldEnv(c)
		lo, hi := p.Range(e.Pos)
		m, err := NewMatrix(e, a.RowBlock(lo, hi), p, 1, 0)
		if err != nil {
			return err
		}
		x := NewVector(p, e.Pos)
		y := NewVector(p, e.Pos)
		for it := 0; it < 3; it++ {
			for i := range x.Local {
				x.Local[i] = float64(it*100 + i)
			}
			if err := m.MatVec(e, y, x, it); err != nil {
				return err
			}
		}
		newest, oldest := m.Ret.Generations()
		if newest != 2 || oldest != 1 {
			return fmt.Errorf("generations %d,%d want 2,1", newest, oldest)
		}
		// The initial-residual convention iter=-1 does not pollute retention.
		if err := m.MatVec(e, y, x, -1); err != nil {
			return err
		}
		newest, oldest = m.Ret.Generations()
		if newest != 2 || oldest != 1 {
			return fmt.Errorf("iter=-1 polluted retention: %d,%d", newest, oldest)
		}
		return nil
	})
}

// The retention store owns the received payloads by reference; repeated
// MatVec calls must not corrupt older generations through buffer reuse.
func TestRetentionGenerationsIndependent(t *testing.T) {
	a := matgen.Poisson2D(10, 10)
	const ranks = 4
	p := partition.NewBlockRow(a.Rows, ranks)
	runSPMD(t, ranks, func(c *cluster.Comm) error {
		e := WorldEnv(c)
		lo, hi := p.Range(e.Pos)
		m, err := NewMatrix(e, a.RowBlock(lo, hi), p, 1, 0)
		if err != nil {
			return err
		}
		x := NewVector(p, e.Pos)
		y := NewVector(p, e.Pos)
		// Generation 0 with value pattern A.
		for i := range x.Local {
			x.Local[i] = 100 + float64(lo+i)
		}
		if err := m.MatVec(e, y, x, 0); err != nil {
			return err
		}
		// Generation 1 with a different pattern.
		for i := range x.Local {
			x.Local[i] = -(100 + float64(lo+i))
		}
		if err := m.MatVec(e, y, x, 1); err != nil {
			return err
		}
		// Generation 0 values must still be pattern A.
		for src := 0; src < ranks; src++ {
			idx := m.Ret.IndicesFrom(src)
			if len(idx) == 0 {
				continue
			}
			v0, err := m.Ret.ValuesFor(0, src, idx)
			if err != nil {
				return err
			}
			v1, err := m.Ret.ValuesFor(1, src, idx)
			if err != nil {
				return err
			}
			for t2, g := range idx {
				if v0[t2] != 100+float64(g) {
					return fmt.Errorf("generation 0 corrupted at %d: %v", g, v0[t2])
				}
				if v1[t2] != -(100 + float64(g)) {
					return fmt.Errorf("generation 1 wrong at %d: %v", g, v1[t2])
				}
			}
		}
		return nil
	})
}

// Redundancy traffic must be visible in the counters and piggybacked extras
// must not add messages beyond the phi=0 baseline (for a banded matrix where
// backups coincide with halo neighbours).
func TestPiggybackAddsNoMessages(t *testing.T) {
	// Circulant band: every rank's +1 backup neighbour already receives halo
	// traffic, including across the 3 -> 0 wraparound, so phi=1 extras can
	// always piggyback.
	n := 256
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 5)
		coo.Add(i, (i+1)%n, -1)
		coo.Add(i, (i-1+n)%n, -1)
	}
	a := coo.ToCSR()
	const ranks = 4
	p := partition.NewBlockRow(a.Rows, ranks)

	countMsgs := func(phi int) (msgs, extraFloats int64) {
		rt := cluster.New(ranks)
		before := rt.Counters().Snapshot()
		err := rt.Run(func(c *cluster.Comm) error {
			e := WorldEnv(c)
			lo, hi := p.Range(e.Pos)
			m, err := NewMatrix(e, a.RowBlock(lo, hi), p, phi, 0)
			if err != nil {
				return err
			}
			x := NewVector(p, e.Pos)
			y := NewVector(p, e.Pos)
			for i := range x.Local {
				x.Local[i] = 1
			}
			return m.MatVec(e, y, x, 0)
		})
		if err != nil {
			t.Fatal(err)
		}
		d := rt.Counters().Snapshot().Diff(before)
		return d.Msgs[cluster.CatHalo] + d.Msgs[cluster.CatRedundancy],
			d.Floats[cluster.CatRedundancy]
	}

	base, extras0 := countMsgs(0)
	if extras0 != 0 {
		t.Fatalf("phi=0 has redundancy floats: %d", extras0)
	}
	withRed, extras1 := countMsgs(1)
	if extras1 <= 0 {
		t.Fatal("phi=1 should send redundancy elements")
	}
	// phi=1 backups are the +1 neighbours, which already receive halo: no
	// new messages, only piggybacked volume.
	if withRed != base {
		t.Fatalf("piggybacking added messages: %d vs %d", withRed, base)
	}
}

func TestSubgroupEnvMatVec(t *testing.T) {
	// A 2-member subgroup of a 5-rank cluster runs its own distributed
	// SpMV on a renumbered subproblem, as the recovery subsystem does.
	sub := matgen.Poisson2D(6, 6)
	p := partition.NewBlockRow(sub.Rows, 2)
	xFull := make([]float64, sub.Rows)
	for i := range xFull {
		xFull[i] = float64(i%4) + 0.5
	}
	want := make([]float64, sub.Rows)
	sub.MulVec(want, xFull)
	members := []int{1, 3}
	runSPMD(t, 5, func(c *cluster.Comm) error {
		in := c.Rank() == 1 || c.Rank() == 3
		if !in {
			return nil
		}
		e, err := GroupEnv(c, members, 7)
		if err != nil {
			return err
		}
		lo, hi := p.Range(e.Pos)
		m, err := NewMatrix(e, sub.RowBlock(lo, hi), p, 0, 3)
		if err != nil {
			return err
		}
		x := distribute(xFull, p, e.Pos)
		y := NewVector(p, e.Pos)
		if err := m.MatVec(e, y, x, 0); err != nil {
			return err
		}
		for i := range y.Local {
			if math.Abs(y.Local[i]-want[lo+i]) > 1e-12 {
				return fmt.Errorf("sub MatVec wrong at %d", lo+i)
			}
		}
		return nil
	})
}

func TestDiagAndOwnBlock(t *testing.T) {
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
		d := m.Diag()
		for i := range d {
			if d[i] != a.At(lo+i, lo+i) {
				return fmt.Errorf("diag wrong at %d", lo+i)
			}
		}
		blk := m.OwnBlock()
		if blk.Rows != hi-lo || blk.Cols != hi-lo {
			return fmt.Errorf("own block dims %dx%d", blk.Rows, blk.Cols)
		}
		for i := 0; i < blk.Rows; i++ {
			for j := 0; j < blk.Cols; j++ {
				if blk.At(i, j) != a.At(lo+i, lo+j) {
					return fmt.Errorf("own block wrong at (%d,%d)", i, j)
				}
			}
		}
		return nil
	})
}

func TestResidual(t *testing.T) {
	a := matgen.Poisson2D(10, 10)
	const ranks = 4
	p := partition.NewBlockRow(a.Rows, ranks)
	n := a.Rows
	xFull := make([]float64, n)
	bFull := make([]float64, n)
	for i := range xFull {
		xFull[i] = float64(i%3) - 1
		bFull[i] = 1
	}
	ax := make([]float64, n)
	a.MulVec(ax, xFull)
	runSPMD(t, ranks, func(c *cluster.Comm) error {
		e := WorldEnv(c)
		lo, hi := p.Range(e.Pos)
		m, err := NewMatrix(e, a.RowBlock(lo, hi), p, 0, 0)
		if err != nil {
			return err
		}
		r := NewVector(p, e.Pos)
		if err := m.Residual(e, r, distribute(bFull, p, e.Pos), distribute(xFull, p, e.Pos), -1); err != nil {
			return err
		}
		for i := range r.Local {
			want := bFull[lo+i] - ax[lo+i]
			if math.Abs(r.Local[i]-want) > 1e-12 {
				return fmt.Errorf("residual wrong at %d", lo+i)
			}
		}
		return nil
	})
}

func TestNewMatrixValidation(t *testing.T) {
	a := matgen.Poisson2D(6, 6)
	p := partition.NewBlockRow(a.Rows, 2)
	runSPMD(t, 2, func(c *cluster.Comm) error {
		e := WorldEnv(c)
		// Wrong block: pass the full matrix instead of the row block.
		if _, err := NewMatrix(e, a, p, 0, 0); err == nil {
			return fmt.Errorf("expected dimension error")
		}
		// phi >= ranks fails.
		lo, hi := p.Range(e.Pos)
		if _, err := NewMatrix(e, a.RowBlock(lo, hi), p, 2, 1); err == nil {
			return fmt.Errorf("expected phi error")
		}
		return nil
	})
}

func BenchmarkDistributedSpMV(b *testing.B) {
	a := matgen.Poisson3D(24, 24, 24)
	for _, ranks := range []int{4, 8, 16} {
		for _, phi := range []int{0, 3} {
			if phi >= ranks {
				continue
			}
			b.Run(fmt.Sprintf("N%d/phi%d", ranks, phi), func(b *testing.B) {
				p := partition.NewBlockRow(a.Rows, ranks)
				rt := cluster.New(ranks)
				err := rt.Run(func(c *cluster.Comm) error {
					e := WorldEnv(c)
					lo, hi := p.Range(e.Pos)
					m, err := NewMatrix(e, a.RowBlock(lo, hi), p, phi, 0)
					if err != nil {
						return err
					}
					x := NewVector(p, e.Pos)
					y := NewVector(p, e.Pos)
					for i := range x.Local {
						x.Local[i] = 1
					}
					if err := e.Grp.Barrier(); err != nil {
						return err
					}
					if e.Pos == 0 {
						b.ResetTimer()
					}
					for i := 0; i < b.N; i++ {
						if err := m.MatVec(e, y, x, i); err != nil {
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
}
