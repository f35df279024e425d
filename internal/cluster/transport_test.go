package cluster

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"
)

// conformanceTransports builds one fresh instance of every transport per
// invocation. The chaos instance uses tight delays so the suite stays fast.
func conformanceTransports() map[string]func() Transport {
	return map[string]func() Transport{
		TransportChan: func() Transport { return NewLocalTransport() },
		TransportChaos: func() Transport {
			return NewChaosTransport(NewLocalTransport(), ChaosConfig{
				Seed:     7,
				MaxDelay: 100 * time.Microsecond,
			})
		},
		// Self-loop mode: every conformance guarantee must hold over real
		// loopback TCP sockets, not just in-process hand-off.
		TransportNet: func() Transport { return NewNetTransport(NetConfig{}) },
	}
}

// forEachTransport runs the conformance case against every transport.
func forEachTransport(t *testing.T, f func(t *testing.T, mk func() Transport)) {
	t.Helper()
	for name, mk := range conformanceTransports() {
		t.Run(name, func(t *testing.T) { f(t, mk) })
	}
}

// TestQuickTransportSendCopies: Send's reuse contract holds on every
// transport — the receiver must never alias the sender's buffer.
func TestQuickTransportSendCopies(t *testing.T) {
	forEachTransport(t, func(t *testing.T, mk func() Transport) {
		rt := New(2, WithTransport(mk()))
		err := rt.Run(func(c *Comm) error {
			if c.Rank() == 0 {
				buf := []float64{1, 2}
				if err := c.SendFloats(CatOther, 1, 1, buf); err != nil {
					return err
				}
				buf[0], buf[1] = 99, 99 // must not be visible to the receiver
				return c.SendFloats(CatOther, 1, 2, nil)
			}
			f, err := c.RecvFloats(0, 1)
			if err != nil {
				return err
			}
			if _, err := c.Recv(0, 2); err != nil {
				return err
			}
			if f[0] != 1 || f[1] != 2 {
				return fmt.Errorf("payload aliased: %v", f)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestQuickTransportFIFO: matching stays FIFO per (source, tag) even when
// two tags interleave (the chaos wire may reorder across tags, never
// within one).
func TestQuickTransportFIFO(t *testing.T) {
	forEachTransport(t, func(t *testing.T, mk func() Transport) {
		rt := New(2, WithTransport(mk()))
		const k = 64
		err := rt.Run(func(c *Comm) error {
			if c.Rank() == 0 {
				for i := 0; i < k; i++ {
					if err := c.SendFloats(CatOther, 1, 3, []float64{float64(i)}); err != nil {
						return err
					}
					if err := c.SendFloats(CatOther, 1, 4, []float64{float64(-i)}); err != nil {
						return err
					}
				}
				return nil
			}
			// Drain tag 4 first, then tag 3: both streams must be in order.
			for i := 0; i < k; i++ {
				f, err := c.RecvFloats(0, 4)
				if err != nil {
					return err
				}
				if f[0] != float64(-i) {
					return fmt.Errorf("tag 4 out of order: got %v want %d", f[0], -i)
				}
			}
			for i := 0; i < k; i++ {
				f, err := c.RecvFloats(0, 3)
				if err != nil {
					return err
				}
				if f[0] != float64(i) {
					return fmt.Errorf("tag 3 out of order: got %v want %d", f[0], i)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestQuickTransportCollectiveDeterminism: the fixed reduction tree makes
// non-associative float sums bit-identical across repeated runs AND across
// transports.
func TestQuickTransportCollectiveDeterminism(t *testing.T) {
	result := func(t *testing.T, mk func() Transport) float64 {
		t.Helper()
		rt := New(8, WithTransport(mk()))
		var mu sync.Mutex
		var got float64
		err := rt.Run(func(c *Comm) error {
			v := math.Sqrt(float64(c.Rank()) + 0.1)
			out, err := c.World().AllreduceScalar(OpSum, v)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				mu.Lock()
				got = out
				mu.Unlock()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	ref := result(t, func() Transport { return NewLocalTransport() })
	forEachTransport(t, func(t *testing.T, mk func() Transport) {
		a, b := result(t, mk), result(t, mk)
		if a != b {
			t.Fatalf("non-deterministic allreduce: %v vs %v", a, b)
		}
		if a != ref {
			t.Fatalf("transport changed the reduction result: %v vs chan's %v", a, ref)
		}
	})
}

// TestQuickTransportFailStop: on every fabric, peers observe a failed slot
// as RankFailedError on both Recv and Send.
func TestQuickTransportFailStop(t *testing.T) {
	forEachTransport(t, func(t *testing.T, mk func() Transport) {
		rt := New(3, WithTransport(mk()))
		defer closeTransport(rt)
		err := rt.Run(func(c *Comm) error {
			switch c.Rank() {
			case 0:
				if _, err := c.Recv(2, 5); !rankFailed(err, 2) {
					return fmt.Errorf("recv from failed: want RankFailedError{2}, got %v", err)
				}
				if err := c.SendFloats(CatOther, 2, 5, []float64{1}); !rankFailed(err, 2) {
					return fmt.Errorf("send to failed: want RankFailedError{2}, got %v", err)
				}
			case 1:
				rt.nodeAt(2).fail()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestQuickTransportMessageBeforeDeath: on every fabric, a message that
// reached the receiver's mailbox before its sender failed is still
// received after the failure.
func TestQuickTransportMessageBeforeDeath(t *testing.T) {
	forEachTransport(t, func(t *testing.T, mk func() Transport) {
		rt := New(2, WithTransport(mk()))
		defer closeTransport(rt)
		failed := make(chan struct{})
		err := rt.Run(func(c *Comm) error {
			if c.Rank() == 1 {
				if err := c.SendFloats(CatOther, 0, 4, []float64{7}); err != nil {
					return err
				}
				// The chaos and net wires deliver asynchronously.
				for got, _ := rt.MailboxDepth(0); got == 0; got, _ = rt.MailboxDepth(0) {
					runtime.Gosched()
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
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestQuickTransportAbortWakeup: Abort wakes every rank blocked in
// communication with an AbortError wrapping the cause.
func TestQuickTransportAbortWakeup(t *testing.T) {
	forEachTransport(t, func(t *testing.T, mk func() Transport) {
		cause := errors.New("test cause")
		rt := New(4, WithTransport(mk()))
		err := rt.Run(func(c *Comm) error {
			if c.Rank() == 0 {
				// Give peers a moment to block, then tear everything down.
				for rt.Counters().TotalMessages() == 0 {
					runtime.Gosched()
				}
				rt.Abort(cause)
				return nil
			}
			// Rank 1 parks in Recv; ranks 2-3 park in a collective.
			if c.Rank() == 1 {
				if err := c.SendFloats(CatOther, 0, 9, nil); err != nil {
					return err
				}
				_, err := c.Recv(0, 42) // never sent
				if !errors.Is(err, ErrAborted) {
					return fmt.Errorf("want ErrAborted, got %v", err)
				}
				var ae *AbortError
				if !errors.As(err, &ae) || !errors.Is(ae.Cause, cause) {
					return fmt.Errorf("abort cause lost: %v", err)
				}
				return err
			}
			if c.Rank() == 2 {
				_, err := c.World().AllreduceScalar(OpSum, 1)
				_ = err // rank 3 never joins before the abort; any unwind is fine
			}
			_, err := c.Recv(0, 43) // never sent
			if !errors.Is(err, ErrAborted) {
				return fmt.Errorf("want ErrAborted, got %v", err)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestQuickTransportOwnedRecycle: the zero-copy path round-trips — an owned
// pooled payload reaches the receiver intact and recycles; the in-process
// fabric's recycler then serves Get without a fresh allocation.
func TestQuickTransportOwnedRecycle(t *testing.T) {
	forEachTransport(t, func(t *testing.T, mk func() Transport) {
		tr := mk()
		rt := New(2, WithTransport(tr))
		const rounds = 32
		err := rt.Run(func(c *Comm) error {
			if c.Rank() == 0 {
				for i := 0; i < rounds; i++ {
					buf := c.GetFloats(100)
					for j := range buf {
						buf[j] = float64(i)
					}
					if err := c.SendOwned(CatOther, 1, 1, buf, nil); err != nil {
						return err
					}
					if _, err := c.Recv(1, 2); err != nil { // ack paces the pool
						return err
					}
				}
				return nil
			}
			for i := 0; i < rounds; i++ {
				m, err := c.Recv(0, 1)
				if err != nil {
					return err
				}
				if len(m.F) != 100 || m.F[0] != float64(i) || m.F[99] != float64(i) {
					return fmt.Errorf("round %d: bad payload %v...", i, m.F[0])
				}
				c.Recycle(m)
				if err := c.SendFloats(CatOther, 0, 2, nil); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if tr.Name() == TransportChan {
			// The counters are sharded by rank, a call from outside every
			// rank included, and the totals count each delivery and
			// recycler call once.
			tr.PutFloats(-1, tr.GetFloats(-1, 100))
			s := tr.Stats()
			if s.Delivered != 2*rounds || s.PoolGets != rounds+1 || s.PoolPuts != rounds+1 || s.Copied != 0 {
				t.Fatalf("stats %+v: want %d delivered, %d gets and puts, no copies", s, 2*rounds, rounds+1)
			}
			if s.PoolPuts == 0 {
				t.Fatalf("recycler never received a buffer: %+v", s)
			}
			if s.PoolNews >= s.PoolGets {
				t.Fatalf("recycler never served a reuse: %+v", s)
			}
		}
	})
}

// TestQuickTransportByName: the name resolver covers every transport and
// rejects unknown names.
func TestQuickTransportByName(t *testing.T) {
	for _, name := range []string{TransportChan, TransportChaos, TransportNet} {
		tr, err := NewTransport(name, 42)
		if err != nil {
			t.Fatalf("NewTransport(%q): %v", name, err)
		}
		if tr.Name() != name {
			t.Fatalf("NewTransport(%q).Name() = %q", name, tr.Name())
		}
	}
	if tr, err := NewTransport("", 0); err != nil || tr.Name() != TransportChan {
		t.Fatalf("the empty name should select the in-process fabric, got %v, %v", tr, err)
	}
	// "fast" is a synonym engine.Config resolves before a name reaches here.
	for _, name := range []string{"bogus", "fast"} {
		if _, err := NewTransport(name, 0); err == nil {
			t.Fatalf("transport name %q should be rejected", name)
		}
	}
}
