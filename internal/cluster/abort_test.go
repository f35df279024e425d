package cluster

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestAbortWakesBlockedRecv checks that Abort releases ranks blocked in
// communication with an error matching ErrAborted and unwrapping the cause.
func TestAbortWakesBlockedRecv(t *testing.T) {
	rt := New(2)
	cause := errors.New("operator said stop")
	errs := make(chan error, 2)
	go func() {
		errs <- rt.Run(func(c *Comm) error {
			if c.Rank() == 0 {
				// Rank 0 never sends; rank 1 blocks forever without an abort.
				<-time.After(10 * time.Millisecond)
				rt.Abort(cause)
				return nil
			}
			_, err := c.Recv(0, 7)
			errs <- err
			return err
		})
	}()
	select {
	case err := <-errs:
		if !errors.Is(err, ErrAborted) {
			t.Fatalf("blocked Recv returned %v, want ErrAborted", err)
		}
		if !errors.Is(err, cause) {
			t.Fatalf("abort error %v does not unwrap to cause", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Abort did not wake the blocked Recv")
	}
	if err := <-errs; err != nil {
		t.Fatalf("Run aggregated abort errors: %v", err)
	}
}

// TestRunContextCancellation checks that cancelling the context aborts the
// runtime and RunContext returns the context cause.
func TestRunContextCancellation(t *testing.T) {
	rt := New(4)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	done := make(chan error, 1)
	go func() {
		done <- rt.RunContext(ctx, func(c *Comm) error {
			// Every rank waits for a message that never arrives.
			_, err := c.Recv((c.Rank()+1)%c.Size(), 3)
			return err
		})
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunContext = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunContext did not return after cancellation")
	}
	if _, ok := rt.Aborted(); !ok {
		t.Fatal("runtime not marked aborted")
	}
}

// TestRankPanicAbortsRun checks that a panic on one rank is contained: the
// process survives, peers blocked on the panicked rank unwind via the
// abort, and Run reports the panic as that rank's error.
func TestRankPanicAbortsRun(t *testing.T) {
	rt := New(3)
	done := make(chan error, 1)
	go func() {
		done <- rt.Run(func(c *Comm) error {
			if c.Rank() == 2 {
				panic("solver bug")
			}
			// Peers block on the panicking rank.
			_, err := c.Recv(2, 1)
			return err
		})
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "rank 2 panicked: solver bug") {
			t.Fatalf("Run = %v, want the rank-2 panic error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("panic on one rank deadlocked the run")
	}
}

// TestRunContextCompletesWithoutCancellation checks the no-cancel fast path.
func TestRunContextCompletesWithoutCancellation(t *testing.T) {
	rt := New(3)
	err := rt.RunContext(context.Background(), func(c *Comm) error {
		return c.World().Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rt.Aborted(); ok {
		t.Fatal("runtime unexpectedly aborted")
	}
}
