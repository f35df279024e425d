package cluster

import (
	"errors"
	"fmt"
)

// ErrAborted is the sentinel matched (via errors.Is) by the error that
// communication operations return after Runtime.Abort: the whole run is
// being torn down, typically because a context was cancelled. The SPMD
// program should unwind; Runtime.Run treats it as expected termination.
var ErrAborted = errors.New("cluster: runtime aborted")

// AbortError is the concrete error returned by communication operations on
// an aborted runtime. It matches ErrAborted and unwraps to the abort cause
// (e.g. context.Canceled or context.DeadlineExceeded).
type AbortError struct {
	// Cause is the reason passed to Runtime.Abort (may be nil).
	Cause error
}

// Error implements the error interface.
func (e *AbortError) Error() string {
	if e.Cause == nil {
		return ErrAborted.Error()
	}
	return fmt.Sprintf("%v: %v", ErrAborted, e.Cause)
}

// Is reports a match against ErrAborted.
func (e *AbortError) Is(target error) bool { return target == ErrAborted }

// Unwrap exposes the abort cause to errors.Is/errors.As chains.
func (e *AbortError) Unwrap() error { return e.Cause }

// RankFailedError reports that a communication peer has failed. This is the
// ULFM-style failure notification surfaced to survivors.
type RankFailedError struct {
	Rank int
}

// Error implements the error interface.
func (e *RankFailedError) Error() string {
	return fmt.Sprintf("cluster: rank %d has failed", e.Rank)
}
