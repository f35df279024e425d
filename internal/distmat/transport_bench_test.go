package distmat

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/matgen"
	"repro/internal/partition"
)

// benchMatVecLoop builds a Poisson2D 64x64 system distributed over 8 ranks
// on the named transport and runs b.N halo-exchanged SpMVs per rank,
// optionally chased by the fused 2-element allreduce a PCG iteration issues.
// Allocation counts (-benchmem) aggregate over all ranks.
func benchMatVecLoop(b *testing.B, trName string, phi int, withReduce bool) {
	const ranks = 8
	a := matgen.Poisson2D(64, 64)
	p := partition.NewBlockRow(a.Rows, ranks)
	tr, err := cluster.NewTransport(trName)
	if err != nil {
		b.Fatal(err)
	}
	rt := cluster.New(ranks, cluster.WithTransport(tr))
	ms := make([]*Matrix, ranks)
	err = rt.Run(func(c *cluster.Comm) error {
		e := WorldEnv(c)
		lo, hi := p.Range(e.Pos)
		m, err := NewMatrix(e, a.RowBlock(lo, hi), p, phi, 0)
		if err != nil {
			return err
		}
		ms[e.Pos] = m
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	err = rt.Run(func(c *cluster.Comm) error {
		e := WorldEnv(c)
		m := ms[e.Pos]
		x := NewVector(p, e.Pos)
		y := NewVector(p, e.Pos)
		for i := range x.Local {
			x.Local[i] = 1 + float64(i)/float64(len(x.Local))
		}
		for i := 0; i < b.N; i++ {
			if err := m.MatVec(e, y, x, i); err != nil {
				return err
			}
			if withReduce {
				out, err := e.Grp.Allreduce(cluster.OpSum,
					[]float64{y.Local[0], x.Local[0]})
				if err != nil {
					return err
				}
				e.Grp.Recycle(out)
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkHaloExchange measures the bare SpMV halo exchange (phi 0, no
// retention) per iteration on the in-process fabric.
func BenchmarkHaloExchange(b *testing.B) {
	benchMatVecLoop(b, cluster.TransportChan, 0, false)
}

// BenchmarkMatVecIter measures a full resilient PCG-iteration communication
// shape: redundancy-piggybacked SpMV (phi 2, retention on) plus the fused
// scalar allreduce. The net row (real TCP frames over the loopback
// self-wire) is for tracking only: loopback socket latency is too
// machine-dependent to compare across machines.
func BenchmarkMatVecIter(b *testing.B) {
	for _, tr := range []string{cluster.TransportChan, cluster.TransportNet} {
		b.Run(tr, func(b *testing.B) { benchMatVecLoop(b, tr, 2, true) })
	}
}
