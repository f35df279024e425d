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
// invocation. The chaos instance uses tight delays so the suite stays fast,
// and a wire delay well below the notification lag so that messages sent
// before a death reliably beat the failure notification.
func conformanceTransports() map[string]func() Transport {
	return map[string]func() Transport{
		TransportChan: func() Transport { return NewLocalTransport() },
		TransportChaos: func() Transport {
			return NewChaosTransport(NewLocalTransport(), ChaosConfig{
				Seed:      7,
				MaxDelay:  100 * time.Microsecond,
				NotifyLag: 10 * time.Millisecond,
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

// TestQuickTransportFailStop: a killed rank unwinds with ErrKilled, and
// peers observe the failure — possibly after the chaos notification lag —
// as RankFailedError on both Recv and Send.
func TestQuickTransportFailStop(t *testing.T) {
	forEachTransport(t, func(t *testing.T, mk func() Transport) {
		rt := New(3, WithTransport(mk()))
		err := rt.Run(func(c *Comm) error {
			switch c.Rank() {
			case 0:
				// The failed Recv doubles as the notification wait.
				_, err := c.Recv(2, 5)
				if _, ok := IsRankFailed(err); !ok {
					return fmt.Errorf("want RankFailedError, got %v", err)
				}
				if c.Alive(2) {
					return errors.New("rank 2 should be seen dead after notification")
				}
				err = c.SendFloats(CatOther, 2, 5, []float64{1})
				if _, ok := IsRankFailed(err); !ok {
					return fmt.Errorf("send to dead: want RankFailedError, got %v", err)
				}
				return nil
			case 1:
				rt.Kill(2)
				return nil
			default: // rank 2: its own death is visible immediately
				_, err := c.Recv(1, 99) // never sent; unblocks via the kill
				if !errors.Is(err, ErrKilled) {
					return fmt.Errorf("victim: want ErrKilled, got %v", err)
				}
				return err // filtered by Run
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestQuickTransportNotificationLag: during the chaos transport's
// notification lag the victim is still reported alive and sends to it
// appear to succeed; after the lag both sides observe the failure.
func TestQuickTransportNotificationLag(t *testing.T) {
	tr := NewChaosTransport(NewLocalTransport(), ChaosConfig{
		Seed: 3, MaxDelay: -1, NotifyLag: 50 * time.Millisecond,
	})
	rt := New(2, WithTransport(tr))
	err := rt.Run(func(c *Comm) error {
		if c.Rank() != 0 {
			return ErrKilled // rank 1 is the victim; killed below
		}
		rt.Kill(1)
		if !c.Alive(1) {
			return errors.New("death visible before the notification lag")
		}
		// Within the lag window the wire accepts (and drops) the message.
		if err := c.SendFloats(CatOther, 1, 1, []float64{1}); err != nil {
			return fmt.Errorf("send during lag: %v", err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for c.Alive(1) {
			if time.Now().After(deadline) {
				return errors.New("notification never arrived")
			}
			time.Sleep(time.Millisecond)
		}
		err := c.SendFloats(CatOther, 1, 1, []float64{1})
		if _, ok := IsRankFailed(err); !ok {
			return fmt.Errorf("send after lag: want RankFailedError, got %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The lag-window message is lost either way: dropped on the wire if the
	// notification beat it, or delivered into the dead node's mailbox where
	// nobody will ever read it.
	if s := tr.Stats(); s.Delayed == 0 || s.Dropped+s.Delivered == 0 {
		t.Fatalf("lag-window message unaccounted for: %+v", s)
	}
}

// TestQuickTransportMessageBeforeDeath: an in-flight message sent before
// the sender's death still reaches the receiver. On the chaos transport
// this relies on the wire delay being below the notification lag.
func TestQuickTransportMessageBeforeDeath(t *testing.T) {
	forEachTransport(t, func(t *testing.T, mk func() Transport) {
		rt := New(2, WithTransport(mk()))
		err := rt.Run(func(c *Comm) error {
			if c.Rank() == 1 {
				if err := c.SendFloats(CatOther, 0, 4, []float64{7}); err != nil {
					return err
				}
				rt.Kill(1)
				return ErrKilled
			}
			f, err := c.RecvFloats(1, 4)
			if err != nil {
				return fmt.Errorf("lost in-flight message: %v", err)
			}
			if f[0] != 7 {
				return fmt.Errorf("got %v", f)
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
			g, gerr := c.Group([]int{2, 3}, 5)
			if gerr != nil {
				return gerr
			}
			if c.Rank() == 2 {
				_, err := g.AllreduceScalar(OpSum, 1)
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
			s := tr.Stats()
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

// TestQuickChaosWireCorruption: the seeded corruption mode flips exactly one
// bit of one element in every CorruptEvery-th qualifying payload per wire,
// deterministically per seed; short payloads and excluded tags pass clean,
// and the Corrupted counter accounts for every flip.
func TestQuickChaosWireCorruption(t *testing.T) {
	const (
		rounds = 6
		width  = 16
	)
	run := func(seed int64, tags func(int) bool) ([][]float64, TransportStats) {
		t.Helper()
		tr := NewChaosTransport(NewLocalTransport(), ChaosConfig{
			Seed:         seed,
			MaxDelay:     -1, // keep ordering trivial; corruption is the subject
			NotifyLag:    -1,
			CorruptEvery: 2,
			CorruptTags:  tags,
		})
		rt := New(2, WithTransport(tr))
		var got [][]float64
		err := rt.Run(func(c *Comm) error {
			if c.Rank() == 0 {
				for i := 0; i < rounds; i++ {
					buf := make([]float64, width)
					for j := range buf {
						buf[j] = float64(i*width + j)
					}
					if err := c.SendFloats(CatOther, 1, 1, buf); err != nil {
						return err
					}
					// Short control payloads must never qualify.
					if err := c.SendFloats(CatOther, 1, 2, []float64{float64(i)}); err != nil {
						return err
					}
				}
				return nil
			}
			for i := 0; i < rounds; i++ {
				f, err := c.RecvFloats(0, 1)
				if err != nil {
					return err
				}
				got = append(got, append([]float64(nil), f...))
				s, err := c.RecvFloats(0, 2)
				if err != nil {
					return err
				}
				if len(s) != 1 || s[0] != float64(i) {
					return fmt.Errorf("short payload %d corrupted: %v", i, s)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return got, tr.Stats()
	}

	diffBits := func(i int, f []float64) int {
		n := 0
		for j := range f {
			want := float64(i*width + j)
			if f[j] != want {
				x := math.Float64bits(f[j]) ^ math.Float64bits(want)
				for ; x != 0; x &= x - 1 {
					n++
				}
			}
		}
		return n
	}

	got, st := run(3, nil)
	// Every 2nd qualifying payload on the wire: ordinals 1, 3, 5.
	for i, f := range got {
		bits := diffBits(i, f)
		if i%2 == 1 && bits != 1 {
			t.Fatalf("payload %d: %d bits flipped, want exactly 1", i, bits)
		}
		if i%2 == 0 && bits != 0 {
			t.Fatalf("payload %d: corrupted off-cadence (%d bits)", i, bits)
		}
	}
	if st.Corrupted != rounds/2 {
		t.Fatalf("Corrupted = %d, want %d", st.Corrupted, rounds/2)
	}

	// Same seed, same flips — bitwise.
	again, _ := run(3, nil)
	for i := range got {
		for j := range got[i] {
			if got[i][j] != again[i][j] {
				t.Fatalf("seed 3 not deterministic at payload %d element %d", i, j)
			}
		}
	}

	// Tag predicate excludes the bulk tag: everything passes clean.
	clean, cst := run(3, func(tag int) bool { return tag == 99 })
	for i, f := range clean {
		if diffBits(i, f) != 0 {
			t.Fatalf("payload %d corrupted despite excluded tag", i)
		}
	}
	if cst.Corrupted != 0 {
		t.Fatalf("Corrupted = %d with excluding predicate", cst.Corrupted)
	}
}
