package cluster

import (
	"runtime"
	"testing"
)

// The two rungs below the solver, at the 8 ranks every BENCHMARK.json
// workload runs, on the one in-process fabric: what one point-to-point
// hand-off costs and what one PCG-shaped reduction costs. ns/op is per
// round on every rank; allocs/op aggregates all ranks.

// BenchmarkPingPong: four disjoint rank pairs each bounce an owned 64-float
// payload back and forth, so every Recv parks and every send wakes a parked
// owner — the hand-off latency the solver's halo drain and reduction tree
// are made of. One op is one round trip (two messages) per pair.
func BenchmarkPingPong(b *testing.B) {
	rt := New(8)
	b.ReportAllocs()
	b.ResetTimer()
	err := rt.Run(func(c *Comm) error {
		peer := c.Rank() ^ 1
		for i := 0; i < b.N; i++ {
			if c.Rank()&1 == 0 {
				if err := c.SendOwned(CatOther, peer, 1, c.GetFloats(64), nil); err != nil {
					return err
				}
			}
			m, err := c.Recv(peer, 1)
			if err != nil {
				return err
			}
			if c.Rank()&1 == 1 {
				if err := c.SendOwned(CatOther, peer, 1, m.F, nil); err != nil {
					return err
				}
			} else {
				c.Recycle(m)
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAllreduce: the fused 2-element Allreduce PCG issues twice per
// iteration (14 messages at 8 ranks: a binomial reduce and a binomial
// broadcast).
func BenchmarkAllreduce(b *testing.B) {
	rt := New(8)
	b.ReportAllocs()
	b.ResetTimer()
	err := rt.Run(func(c *Comm) error {
		w := c.World()
		vals := []float64{1.5, 2.5}
		for i := 0; i < b.N; i++ {
			out, err := w.Allreduce(OpSum, vals)
			if err != nil {
				return err
			}
			w.Recycle(out)
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// steadyStateAllocs runs round on all 8 ranks of a fresh default runtime —
// warm-up rounds first, so the mailboxes, the pending lists and the payload
// pool have reached their working size — and returns the process-wide
// allocations per measured round, floored like testing.AllocsPerRun.
func steadyStateAllocs(t *testing.T, round func(c *Comm, w *Group, i int) error) uint64 {
	t.Helper()
	const warm, rounds = 200, 2000
	var before, after runtime.MemStats
	err := New(8).Run(func(c *Comm) error {
		w := c.World()
		for i := 0; i < warm+rounds; i++ {
			if i == warm {
				// Rank 0 samples between two barriers, so no rank is inside
				// a measured round while the counter is read.
				if err := w.Barrier(); err != nil {
					return err
				}
				if c.Rank() == 0 {
					runtime.ReadMemStats(&before)
				}
				if err := w.Barrier(); err != nil {
					return err
				}
			}
			if err := round(c, w, i); err != nil {
				return err
			}
		}
		if err := w.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			runtime.ReadMemStats(&after)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return (after.Mallocs - before.Mallocs) / rounds
}

// TestMailboxSteadyStateAllocatesNothing: after warm-up, a 2-float Allreduce
// and an owned 64-float ring exchange run without allocating — payloads
// come from the recycler, the mailbox queue and the per-source pending
// lists keep their capacity.
func TestMailboxSteadyStateAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	vals := []float64{1.5, 2.5}
	if n := steadyStateAllocs(t, func(c *Comm, w *Group, i int) error {
		out, err := w.Allreduce(OpSum, vals)
		w.Recycle(out)
		return err
	}); n != 0 {
		t.Errorf("steady-state Allreduce: %d allocs per round, want 0", n)
	}
	if n := steadyStateAllocs(t, func(c *Comm, w *Group, i int) error {
		next, prev := (c.Rank()+1)%c.Size(), (c.Rank()+c.Size()-1)%c.Size()
		if err := c.SendOwned(CatHalo, next, 7, c.GetFloats(64), nil); err != nil {
			return err
		}
		m, err := c.Recv(prev, 7)
		c.Recycle(m)
		return err
	}); n != 0 {
		t.Errorf("owned ring exchange: %d allocs per round, want 0", n)
	}
}
