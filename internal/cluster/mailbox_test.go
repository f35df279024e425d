package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// wakeDeadline bounds every wake-up these tests wait for: a lost wake-up is
// a hang, so each wait is a deadline, not a sleep.
const wakeDeadline = 2 * time.Second

// waitParked blocks until the owner of every given rank is parked in Recv
// on an empty mailbox.
func waitParked(t *testing.T, rt *Runtime, ranks ...int) {
	t.Helper()
	deadline := time.Now().Add(wakeDeadline)
	for _, r := range ranks {
		for {
			nd := rt.nodeAt(r)
			nd.mu.Lock()
			parked := nd.parked && len(nd.queue) == 0
			nd.mu.Unlock()
			if parked {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("rank %d never parked", r)
			}
			runtime.Gosched()
		}
	}
}

// runWithin runs the SPMD program and fails the test, naming the case, if
// it outlives the wake deadline, dumping every goroutine so the stuck Recv
// is visible.
func runWithin(t *testing.T, what string, rt *Runtime, trigger func(), fn func(c *Comm) error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- rt.Run(fn) }()
	trigger()
	select {
	case err := <-done:
		return err
	case <-time.After(wakeDeadline):
		buf := make([]byte, 1<<20)
		t.Fatalf("%s: run outlived %v — a parked receiver was not woken\n%s",
			what, wakeDeadline, buf[:runtime.Stack(buf, true)])
		return nil
	}
}

// TestMailboxWakePaths: on every fabric, a Recv parked on an empty mailbox
// is woken by each event it waits on besides a message — the failure of
// the source it waits for (RankFailedError, and only after what the source
// sent first was drained), and an Abort (AbortError carrying the cause).
func TestMailboxWakePaths(t *testing.T) {
	forEachTransport(t, func(t *testing.T, mk func() Transport) {
		t.Run("source-death", func(t *testing.T) {
			rt := New(2, WithTransport(mk()))
			defer closeTransport(rt)
			err := runWithin(t, "source death", rt, func() {
				// Rank 1 has taken the tag-1 message off its mailbox (filed
				// under pending) and parked again before the source dies.
				deadline := time.Now().Add(wakeDeadline)
				for {
					if got, _ := rt.MailboxDepth(1); got >= 1 {
						break
					}
					if time.Now().After(deadline) {
						t.Fatal("the message sent before the death never arrived")
					}
					runtime.Gosched()
				}
				waitParked(t, rt, 1)
				rt.nodeAt(0).fail()
			}, func(c *Comm) error {
				if c.Rank() == 0 {
					return c.SendFloats(CatOther, 1, 1, []float64{7})
				}
				_, err := c.Recv(0, 2) // never sent: parks until the source fails
				if !rankFailed(err, 0) {
					return fmt.Errorf("parked on a dying source: want RankFailedError{0}, got %v", err)
				}
				f, err := c.RecvFloats(0, 1)
				if err != nil || len(f) != 1 || f[0] != 7 {
					return fmt.Errorf("message sent before the death lost: %v, %v", f, err)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})

		t.Run("abort", func(t *testing.T) {
			cause := errors.New("operator said stop")
			rt := New(3, WithTransport(mk()))
			defer closeTransport(rt)
			err := runWithin(t, "abort", rt, func() {
				waitParked(t, rt, 0, 1, 2)
				rt.Abort(cause)
			}, func(c *Comm) error {
				_, err := c.Recv((c.Rank()+1)%3, 4) // nobody sends
				var ae *AbortError
				if !errors.As(err, &ae) || !errors.Is(ae.Cause, cause) {
					return fmt.Errorf("parked at abort: want AbortError wrapping the cause, got %v", err)
				}
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	})
}

// closeTransport releases a transport that holds resources (the net
// fabric's listener and connections).
func closeTransport(rt *Runtime) {
	if c, ok := rt.Transport().(interface{ Close() error }); ok {
		c.Close()
	}
}

// TestMailboxStressKillOrAbort is the lost-wake-up hunt: 8 ranks loop an
// Allreduce plus a ring exchange; at a seeded point one rank either fails a
// seeded victim's slot or aborts the runtime, from inside the loop, while the
// others are wherever the scheduler left them — parked, mid-swap, about to
// park. Whoever notices a failure aborts, as the solver's drivers do. No
// run may outlive the deadline: a receiver that missed its wake-up hangs,
// and nothing but a stress run finds that.
func TestMailboxStressKillOrAbort(t *testing.T) {
	const ranks = 8
	fabrics := []struct {
		name          string
		seeds, rounds int // every chaos hop is a timer, so its runs are shorter
		mk            func() Transport
	}{
		{TransportChan, 200, 300, func() Transport { return NewLocalTransport() }},
		{TransportChaos, 40, 30, func() Transport {
			return NewChaosTransport(NewLocalTransport(), ChaosConfig{
				Seed: 11, MaxDelay: 20 * time.Microsecond,
			})
		}},
		{TransportNet, 20, 100, func() Transport { return NewNetTransport(NetConfig{}) }},
	}
	for _, fab := range fabrics {
		t.Run(fab.name, func(t *testing.T) {
			for seed := 0; seed < fab.seeds; seed++ {
				rng := rand.New(rand.NewSource(int64(seed)))
				rounds := fab.rounds
				trigger, at := rng.Intn(ranks), rng.Intn(rounds)
				victim, abort, midRound := rng.Intn(ranks), rng.Intn(3) == 0, rng.Intn(2) == 0
				cause := errors.New("stress abort")
				rt := New(ranks, WithTransport(fab.mk()))
				fire := func() {
					if abort {
						rt.Abort(cause)
					} else {
						rt.nodeAt(victim).fail()
					}
				}
				what := fmt.Sprintf("seed %d (trigger rank %d at round %d, victim %d, abort %v, mid-round %v)",
					seed, trigger, at, victim, abort, midRound)
				runWithin(t, what, rt, func() {}, func(c *Comm) error {
					w := c.World()
					next, prev := (c.Rank()+1)%ranks, (c.Rank()+ranks-1)%ranks
					step := func(i int) error {
						if c.Rank() == trigger && i == at && !midRound {
							fire()
						}
						out, err := w.Allreduce(OpSum, []float64{1, float64(i)})
						if err != nil {
							return err
						}
						w.Recycle(out)
						if c.Rank() == trigger && i == at && midRound {
							fire()
						}
						if err := c.SendOwned(CatHalo, next, 7, c.GetFloats(16), nil); err != nil {
							return err
						}
						m, err := c.Recv(prev, 7)
						c.Recycle(m)
						return err
					}
					for i := 0; i < rounds; i++ {
						if err := step(i); err != nil {
							rt.Abort(err) // unwind the ranks parked on this one
							return err
						}
					}
					return nil // the fault came too late to reach this rank
				})
				closeTransport(rt)
			}
		})
	}
}
