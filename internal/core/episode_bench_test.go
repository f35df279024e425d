package core

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/distmat"
	"repro/internal/faults"
	"repro/internal/matgen"
	"repro/internal/partition"
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
		b.Fatal(err)
	}
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
