package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
)

// SolveChunked runs a batch in chunks of the resolved policy's BlockSize,
// each cut into two halves (⌈w/2⌉ and ⌊w/2⌋ columns) that run as concurrent
// lockstep groups: one group alone cannot keep two cores busy through its
// collectives. Groups start in order, at most two at a time, and BlockSize
// bounds the columns in flight (1: one column at a time). A group of k
// columns is one solveOn — one k-column SpMM, one k-strided halo frame per
// neighbor and fused length-k allreduces per iteration, one ESR episode or
// rollback for all k — under whatever policy opts resolves to. Column c is
// bitwise identical to Solve(ctx, bs[c], opts) on every transport, with the
// same Result counts. Like Solve, it is safe for concurrent use; the batch's
// Tracer is never called concurrently.
//
// The policy and every column are validated before the first group runs.
// onBlock, when non-nil, sees the width of every completed group, in group
// order. The returned solutions are aligned with bs. A global failure of a
// group (communication, cancellation, data loss) cancels the others and
// aborts the batch with that group's error once all have returned. A
// per-column breakdown, divergence or detected corruption leaves its entry
// zero-valued and comes back joined, naming its column.
func (ps *Prepared) SolveChunked(ctx context.Context, bs [][]float64, opts Config, onBlock func(width int)) ([]Solution, error) {
	cfg, err := ps.policy(&opts)
	if err != nil {
		return nil, err
	}
	// solveOn slices the columns unchecked: a malformed one is refused with a
	// typed *InvalidRHSError naming it before any group runs.
	if err := validateBatch(bs, ps.n); err != nil {
		return nil, err
	}
	type group struct {
		lo, hi int
		done   chan struct{}
		err    error
	}
	var groups []*group
	for lo := 0; lo < len(bs); lo += cfg.BlockSize {
		hi := min(lo+cfg.BlockSize, len(bs))
		mid := lo + (hi-lo+1)/2
		groups = append(groups, &group{lo: lo, hi: mid, done: make(chan struct{})})
		if mid < hi {
			groups = append(groups, &group{lo: mid, hi: hi, done: make(chan struct{})})
		}
	}
	if cfg.Tracer != nil {
		// The concurrent groups call the batch's tracer one at a time.
		cfg.Tracer = lockedTracer{new(sync.Mutex), cfg.Tracer}
	}
	// The first group to fail cancels the rest with its own error as the
	// cause, which is then what every group cancelled by it returns.
	gctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	sols := make([]Solution, len(bs))
	colErrs := make([]error, len(bs))
	next, joined, inFlight, failed := 0, 0, 0, false
	join := func() {
		g := groups[joined]
		<-g.done
		if g.err == nil && onBlock != nil {
			onBlock(g.hi - g.lo)
		}
		failed = failed || g.err != nil
		inFlight -= g.hi - g.lo
		joined++
	}
	for next < len(groups) && gctx.Err() == nil {
		g := groups[next]
		if next-joined == 2 || inFlight+g.hi-g.lo > cfg.BlockSize {
			join()
			continue
		}
		inFlight += g.hi - g.lo
		next++
		go func() {
			defer close(g.done)
			gs, ge, err := solveGroup(ps, gctx, bs[g.lo:g.hi], cfg)
			if g.err = err; err != nil {
				cancel(err)
				return
			}
			copy(sols[g.lo:], gs)
			copy(colErrs[g.lo:], ge)
		}()
	}
	for joined < next {
		join()
	}
	if failed || next < len(groups) {
		return nil, context.Cause(gctx)
	}
	var errs []error
	for c, cerr := range colErrs {
		if cerr != nil {
			errs = append(errs, fmt.Errorf("rhs %d: %w", c, cerr))
		}
	}
	return sols, errors.Join(errs...)
}

// solveGroup solves one group of a batch; tests substitute it to decide
// which group fails, and when.
var solveGroup = func(ps *Prepared, ctx context.Context, bs [][]float64, cfg *Config) ([]Solution, []error, error) {
	return ps.solveOn(ctx, nil, nil, bs, cfg, core.Options{})
}

// lockedTracer calls its Tracer under the batch's lock.
type lockedTracer struct {
	*sync.Mutex
	core.Tracer
}

func (t lockedTracer) TraceIteration(it core.IterationTrace) {
	t.Lock()
	defer t.Unlock()
	t.Tracer.TraceIteration(it)
}

func (t lockedTracer) TraceRecovery(rt core.RecoveryTrace) {
	t.Lock()
	defer t.Unlock()
	t.Tracer.TraceRecovery(rt)
}
