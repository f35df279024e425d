package core

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/distmat"
	"repro/internal/faults"
	"repro/internal/matgen"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// BenchmarkReconstructionEpisode is the episode rung: one op is one solve of
// the circuit-irregular workload's matrix (catalogue M3's generator, n 12 000)
// on 8 ranks at phi 3 in which ranks 2, 3 and 4 fail together at iteration
// 10, on matrices and ILU(0) factors built once. held-µs/episode is the time
// the episode held the iteration up (Reconstruction.Duration, rank 0's);
// allocs/op and B/op count the whole recovered solve.
func BenchmarkReconstructionEpisode(b *testing.B) {
	const ranks, phi = 8, 3
	a := matgen.CircuitLike(12000, 2.9, 0.35, 3)
	p := partition.NewBlockRow(a.Rows, ranks)
	ss := newSessionStub()
	mats, precs := sessionBlocks(b, a, ranks, phi)
	var held time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched := faults.NewSchedule(faults.Simultaneous(10, 2, 3, 4))
		err := cluster.New(ranks).Run(func(c *cluster.Comm) error {
			e := distmat.WorldEnv(c)
			m := mats[e.Pos].Fork()
			lo, _ := p.Range(e.Pos)
			rhs := distmat.NewVector(p, e.Pos)
			for t := range rhs.Local {
				rhs.Local[t] = 1 + 0.5*float64((lo+t)%7)
			}
			res, err := ss.esrpcg(e, m, distmat.NewVector(p, e.Pos), rhs, precs[e.Pos], Options{Tol: 1e-9}, sched)
			if err == nil && e.Pos == 0 {
				if len(res.Reconstructions) != 1 {
					b.Errorf("%d episodes, want 1", len(res.Reconstructions))
				} else {
					held += res.Reconstructions[0].Duration
				}
			}
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(held.Microseconds())/float64(b.N), "held-µs/episode")
}

// sessionBlocks builds what a session holds for every rank of a on ranks
// ranks at phi: its matrix, on the world Env, and its ILU(0).
func sessionBlocks(tb testing.TB, a *sparse.CSR, ranks, phi int) ([]*distmat.Matrix, []Precond) {
	tb.Helper()
	p := partition.NewBlockRow(a.Rows, ranks)
	mats, precs := make([]*distmat.Matrix, ranks), make([]Precond, ranks)
	err := cluster.New(ranks).Run(func(c *cluster.Comm) error {
		e := distmat.WorldEnv(c)
		lo, hi := p.Range(e.Pos)
		m, err := distmat.NewMatrix(e, a.RowBlock(lo, hi), p, phi, 0)
		if err != nil {
			return err
		}
		pc, err := iluFactory(e, m)
		mats[e.Pos], precs[e.Pos] = m, pc
		return err
	})
	if err != nil {
		tb.Fatal(err)
	}
	return mats, precs
}

// benchGenerators are the three benchmark workloads' generators at bench
// size.
func benchGenerators() []struct {
	name string
	a    *sparse.CSR
} {
	return []struct {
		name string
		a    *sparse.CSR
	}{
		{"poisson", matgen.Poisson2D(64, 64)},
		{"elasticity", matgen.Elasticity3D(14, 14, 14, 27, 8)},
		{"circuit", matgen.CircuitLike(12000, 2.9, 0.35, 3)},
	}
}

// BenchmarkXSystem is the x-system rung: one op is the leader's whole
// background work for one column of an episode in which ranks 3, 4 and 5
// fail together, on the three workloads' generators at bench size, 8 ranks,
// phi 3, ILU(0) sessions — the assembly of A_{If,If} and the factor the rule
// picks (factor_ms), then its PCG to the default LocalTol (solve_ms,
// subiters). coupled is 1 where the rule picked the coupled factor.
func BenchmarkXSystem(b *testing.B) {
	const ranks, phi = 8, 3
	victims := []int{3, 4, 5}
	for _, g := range benchGenerators() {
		b.Run(g.name, func(b *testing.B) {
			mats, sessions := sessionBlocks(b, g.a, ranks, phi)
			blocks, precs := make([]*distmat.Matrix, len(victims)), make([]Precond, len(victims))
			w, x := make([][]float64, len(victims)), make([][]float64, len(victims))
			for t, f := range victims {
				blocks[t], precs[t] = mats[f], sessions[f]
				lo, hi := mats[f].P.Range(f)
				w[t], x[t] = make([]float64, hi-lo), make([]float64, hi-lo)
				for i := range w[t] {
					w[t][i] = 1 + 0.5*float64((lo+i)%7)
				}
			}
			var factor, solve time.Duration
			var iters int
			coupled := 0.0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				sys, err := newSubsystem(blocks, precs)
				if err != nil {
					b.Fatal(err)
				}
				mid := time.Now()
				if iters, err = sys.solve(w, x, 1e-14, defaultLocalMaxIter(sys.n)); err != nil {
					b.Fatal(err)
				}
				factor, solve = factor+mid.Sub(start), solve+time.Since(mid)
				if sys.coupled {
					coupled = 1
				}
			}
			ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 / float64(b.N) }
			b.ReportMetric(float64(iters), "subiters")
			b.ReportMetric(ms(factor), "factor_ms")
			b.ReportMetric(ms(solve), "solve_ms")
			b.ReportMetric(coupled, "coupled")
		})
	}
}
