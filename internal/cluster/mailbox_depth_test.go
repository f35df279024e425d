package cluster_test

import (
	"context"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/matgen"
)

// TestMailboxStaysShallow: the mailbox is unbounded, so nothing in the
// fabric stops a fast rank from piling messages onto a slow one — the SPMD
// program does. A PCG iteration has two allreduces, and no rank leaves an
// allreduce before every rank has entered it, so a rank is never more than
// one iteration ahead of the slowest: no mailbox may ever hold more than two
// iterations' worth of what its rank receives. Asserted on the shape that
// stresses it most — the circuit-irregular workload's problem at test size
// (every rank a halo neighbour of every other), 8 ranks, phi 3.
func TestMailboxStaysShallow(t *testing.T) {
	const ranks = 8
	a := matgen.CircuitLike(600, 2.9, 0.35, 3)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1 + float64(i%7)/7
	}
	ps, err := engine.Prepare(a, engine.Config{Ranks: ranks, Phi: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	all := make([]int, ranks)
	for r := range all {
		all[r] = r
	}
	rt := cluster.New(ranks)
	sol, err := ps.SolveOn(context.Background(), rt, all, b, engine.Config{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Result.Converged || sol.Result.Iterations < 10 {
		t.Fatalf("solve too short to say anything: %+v", sol.Result)
	}
	for r := 0; r < ranks; r++ {
		received, highWater := rt.MailboxDepth(r)
		perIter := float64(received) / float64(sol.Result.Iterations)
		t.Logf("rank %d: %d messages over %d iterations (%.1f/iteration), mailbox high-water %d",
			r, received, sol.Result.Iterations, perIter, highWater)
		if float64(highWater) > 2*perIter {
			t.Errorf("rank %d: mailbox reached %d messages, more than two iterations' worth (%.1f each)",
				r, highWater, perIter)
		}
	}
}
