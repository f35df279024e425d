package cluster

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
)

func TestPingPong(t *testing.T) {
	rt := New(2)
	err := rt.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.SendFloats(CatOther, 1, 7, []float64{1, 2, 3}); err != nil {
				return err
			}
			f, err := c.RecvFloats(1, 8)
			if err != nil {
				return err
			}
			if len(f) != 1 || f[0] != 6 {
				return fmt.Errorf("got %v", f)
			}
			return nil
		}
		f, err := c.RecvFloats(0, 7)
		if err != nil {
			return err
		}
		s := 0.0
		for _, v := range f {
			s += v
		}
		return c.SendFloats(CatOther, 0, 8, []float64{s})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	rt := New(2)
	err := rt.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []float64{1}
			if err := c.SendFloats(CatOther, 1, 1, buf); err != nil {
				return err
			}
			buf[0] = 99 // must not be visible to the receiver
			return c.SendFloats(CatOther, 1, 2, nil)
		}
		f, err := c.RecvFloats(0, 1)
		if err != nil {
			return err
		}
		if _, err := c.Recv(0, 2); err != nil {
			return err
		}
		if f[0] != 1 {
			return fmt.Errorf("payload aliased: %v", f[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFIFOPerSourceTag(t *testing.T) {
	rt := New(2)
	err := rt.Run(func(c *Comm) error {
		const k = 50
		if c.Rank() == 0 {
			for i := 0; i < k; i++ {
				if err := c.SendFloats(CatOther, 1, 3, []float64{float64(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < k; i++ {
			f, err := c.RecvFloats(0, 3)
			if err != nil {
				return err
			}
			if f[0] != float64(i) {
				return fmt.Errorf("out of order: got %v want %d", f[0], i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOutOfOrderTagsMatched(t *testing.T) {
	rt := New(2)
	err := rt.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.SendFloats(CatOther, 1, 10, []float64{10}); err != nil {
				return err
			}
			return c.SendFloats(CatOther, 1, 20, []float64{20})
		}
		// Receive tag 20 first although tag 10 arrives first.
		f20, err := c.RecvFloats(0, 20)
		if err != nil {
			return err
		}
		f10, err := c.RecvFloats(0, 10)
		if err != nil {
			return err
		}
		if f20[0] != 20 || f10[0] != 10 {
			return fmt.Errorf("mismatched: %v %v", f20, f10)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceSum(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 16, 33} {
		rt := New(n)
		err := rt.Run(func(c *Comm) error {
			w := c.World()
			out, err := w.Allreduce(OpSum, []float64{float64(c.Rank()), 1})
			if err != nil {
				return err
			}
			wantSum := float64(n*(n-1)) / 2
			if out[0] != wantSum || out[1] != float64(n) {
				return fmt.Errorf("rank %d: got %v", c.Rank(), out)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestAllreduceMaxMin(t *testing.T) {
	rt := New(5)
	err := rt.Run(func(c *Comm) error {
		w := c.World()
		mx, err := w.AllreduceScalar(OpMax, float64(c.Rank()*c.Rank()))
		if err != nil {
			return err
		}
		if mx != 16 {
			return fmt.Errorf("max = %v", mx)
		}
		mn, err := w.AllreduceScalar(OpMin, float64(c.Rank())-2)
		if err != nil {
			return err
		}
		if mn != -2 {
			return fmt.Errorf("min = %v", mn)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceDeterministic(t *testing.T) {
	// Tree reduction order is fixed: two runs give bit-identical results for
	// non-associative float sums.
	run := func() float64 {
		rt := New(8)
		var mu sync.Mutex
		var got float64
		err := rt.Run(func(c *Comm) error {
			v := math.Sqrt(float64(c.Rank()) + 0.1)
			out, err := c.World().AllreduceScalar(OpSum, v)
			if err != nil {
				return err
			}
			mu.Lock()
			got = out
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("non-deterministic allreduce: %v vs %v", a, b)
	}
}

func TestBcastAllRoots(t *testing.T) {
	const n = 6
	for root := 0; root < n; root++ {
		rt := New(n)
		err := rt.Run(func(c *Comm) error {
			var payload []float64
			if c.Rank() == root {
				payload = []float64{42, float64(root)}
			}
			got, err := c.World().Bcast(root, payload)
			if err != nil {
				return err
			}
			if len(got) != 2 || got[0] != 42 || got[1] != float64(root) {
				return fmt.Errorf("rank %d got %v", c.Rank(), got)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("root %d: %v", root, err)
		}
	}
}

func TestBarrier(t *testing.T) {
	const n = 9
	rt := New(n)
	var counter sync.Map
	err := rt.Run(func(c *Comm) error {
		w := c.World()
		for phase := 0; phase < 5; phase++ {
			counter.Store(fmt.Sprintf("%d-%d", phase, c.Rank()), true)
			if err := w.Barrier(); err != nil {
				return err
			}
			// After the barrier, all ranks must have registered this phase.
			for r := 0; r < n; r++ {
				if _, ok := counter.Load(fmt.Sprintf("%d-%d", phase, r)); !ok {
					return fmt.Errorf("barrier leak: phase %d rank %d missing", phase, r)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGatherv: position 0 assembles every member's part in member order;
// the others get nothing back, and each sends exactly one message carrying
// exactly its part while the root sends nothing at all.
func TestGatherv(t *testing.T) {
	rt := New(4)
	err := rt.Run(func(c *Comm) error {
		mine := make([]float64, c.Rank()+1) // rank r contributes r+1 elements
		for i := range mine {
			mine[i] = float64(c.Rank()*10 + i)
		}
		parts, err := c.World().Gatherv(mine)
		if err != nil {
			return err
		}
		if c.Rank() != 0 {
			if parts != nil {
				return fmt.Errorf("rank %d got %d parts back", c.Rank(), len(parts))
			}
			return nil
		}
		if len(parts) != 4 {
			return fmt.Errorf("%d parts", len(parts))
		}
		for r, part := range parts {
			if len(part) != r+1 {
				return fmt.Errorf("rank %d part len %d", r, len(part))
			}
			for i, v := range part {
				if v != float64(r*10+i) {
					return fmt.Errorf("bad value %v", v)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := range 4 {
		sh := &rt.Counters().shards[r]
		msgs, floats := sh.msgs[CatCollective].Load(), sh.floats[CatCollective].Load()
		if want := min(r, 1); msgs != int64(want) || floats != int64(want*(r+1)) {
			t.Errorf("rank %d sent %d messages, %d floats; want %d, %d", r, msgs, floats, want, want*(r+1))
		}
	}
}

// rankFailed reports whether err is a RankFailedError naming rank.
func rankFailed(err error, rank int) bool {
	var rf *RankFailedError
	return errors.As(err, &rf) && rf.Rank == rank
}

// TestKillSendRecvSemantics: once a slot fails, a receiver parked on it
// wakes with RankFailedError, and a send to it — and the put every fabric's
// delivery ends in — refuses with the same error.
func TestKillSendRecvSemantics(t *testing.T) {
	rt := New(3)
	err := rt.Run(func(c *Comm) error {
		switch c.Rank() {
		case 0:
			if _, err := c.Recv(2, 5); !rankFailed(err, 2) {
				return fmt.Errorf("recv from failed: want RankFailedError{2}, got %v", err)
			}
			if err := c.SendFloats(CatOther, 2, 5, []float64{1}); !rankFailed(err, 2) {
				return fmt.Errorf("send to failed: want RankFailedError{2}, got %v", err)
			}
			if err := rt.Transport().Deliver(rt.nodeAt(2), Msg{From: 0, Tag: 5}, true); !rankFailed(err, 2) {
				return fmt.Errorf("deliver to failed: want RankFailedError{2}, got %v", err)
			}
			return nil
		case 1:
			rt.nodeAt(2).fail()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMessageBeforeDeathIsDelivered: a message that reached the mailbox
// before its source failed is received even by a Recv that starts after the
// failure; only the next Recv from that source observes it.
func TestMessageBeforeDeathIsDelivered(t *testing.T) {
	rt := New(2)
	failed := make(chan struct{})
	err := rt.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			if err := c.SendFloats(CatOther, 0, 4, []float64{7}); err != nil {
				return err
			}
			rt.nodeAt(1).fail()
			close(failed)
			return nil
		}
		<-failed
		f, err := c.RecvFloats(1, 4)
		if err != nil || f[0] != 7 {
			return fmt.Errorf("message sent before the failure lost: %v, %v", f, err)
		}
		if _, err := c.Recv(1, 4); !rankFailed(err, 1) {
			return fmt.Errorf("after the drain: want RankFailedError{1}, got %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCounters(t *testing.T) {
	rt := New(2)
	before := rt.Counters().Snapshot()
	err := rt.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(CatHalo, 1, 1, []float64{1, 2, 3}, []int{4, 5})
		}
		_, err := c.Recv(0, 1)
		// Traffic outside the fabric lands in the same totals.
		c.RecordStorage(CatCheckpoint, 10)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	d := rt.Counters().Snapshot().Diff(before)
	if d.Msgs[CatHalo] != 1 || d.Floats[CatHalo] != 3 {
		t.Fatalf("counters: %+v", d)
	}
	if rt.Counters().TotalMessages() < 2 || rt.Counters().TotalFloats() < 13 {
		t.Fatal("totals wrong")
	}
	if d.Msgs[CatCheckpoint] != 1 || d.Floats[CatCheckpoint] != 10 {
		t.Fatalf("storage record: %+v", d)
	}
}

func TestInvalidRanks(t *testing.T) {
	rt := New(2)
	err := rt.Run(func(c *Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		if err := c.SendFloats(CatOther, 5, 0, nil); err == nil {
			return errors.New("send to invalid rank should fail")
		}
		if _, err := c.Recv(-1, 0); err == nil {
			return errors.New("recv from invalid rank should fail")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunAggregatesErrors(t *testing.T) {
	rt := New(3)
	sentinel := errors.New("boom")
	err := rt.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("want wrapped sentinel, got %v", err)
	}
}

func TestCategoriesStringer(t *testing.T) {
	for _, cat := range Categories() {
		if cat.String() == "unknown" {
			t.Fatalf("category %d has no name", cat)
		}
	}
}

// TestTreeSumMatchesAllreduce: TreeSum over the members' partials is bit for
// bit the OpSum Allreduce of a group of that size, for sizes 1-8, on values
// whose sum depends on the association order — so a helper that added in
// rank order would fail, as the check on sequential summation shows.
func TestTreeSumMatchesAllreduce(t *testing.T) {
	values := []float64{1e16, 1, -1e16, 1, 3.25e15, -7, 0.5, -3.25e15, 1e-3}
	orderSensitive := false
	for n := 1; n <= 8; n++ {
		for shift := 0; shift < len(values); shift++ {
			parts := make([]float64, n)
			for p := range parts {
				parts[p] = values[(p+shift)%len(values)]
			}
			got := make([]float64, n)
			err := New(n).Run(func(c *Comm) error {
				v, err := c.World().AllreduceScalar(OpSum, parts[c.Rank()])
				got[c.Rank()] = v
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			want := TreeSum(parts)
			for r, v := range got {
				if math.Float64bits(v) != math.Float64bits(want) {
					t.Fatalf("size %d shift %d: rank %d's Allreduce %v (%x), TreeSum %v (%x)",
						n, shift, r, v, math.Float64bits(v), want, math.Float64bits(want))
				}
			}
			seq := 0.0
			for _, v := range parts {
				seq += v
			}
			orderSensitive = orderSensitive || seq != want
		}
	}
	if !orderSensitive {
		t.Fatal("no case distinguishes the tree order from sequential summation")
	}
}
