package engine

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
)

// ValidateBatch fail-fast checks every column of bs against the prepared
// system — length and finiteness — returning a typed *InvalidRHSError naming
// the first offending column. Callers batching through either the blocked or
// the looped path use it to reject a malformed batch before any solve runs.
func (ps *Prepared) ValidateBatch(bs [][]float64) error {
	return validateBatch(bs, ps.n)
}

// CanSolveBlock reports whether a batch with these per-solve options can run
// through SolveBlock on this session. Batches that cannot fall back to
// looped per-column solves.
func (ps *Prepared) CanSolveBlock(opts SolveOpts) bool { return ps.blockRejection(opts) == nil }

// blockRejection says why a batch with these options cannot run through
// SolveBlock (nil when it can): the policy must resolve to the PCG driver —
// SPCG is a width-1 solver of its own — and must pass core.WidthOneOnly.
func (ps *Prepared) blockRejection(opts SolveOpts) error {
	cfg, err := ps.policy(opts)
	if err != nil {
		return err
	}
	if cfg.Method == MethodSPCG {
		return fmt.Errorf("engine: method %q solves one right-hand side at a time", MethodSPCG)
	}
	return core.WidthOneOnly(cfg.Strategy, coreOptions(context.Background(), cfg, opts), cfg.Schedule)
}

// SolveBlock solves the k systems A x[c] = bs[c] in lockstep against the
// prepared state: one k-column SpMM, one k-strided halo frame per neighbor
// and fused length-k allreduces per iteration, with ESR recovery
// reconstructing all k columns of a lost block in one episode. Column c of
// the returned solutions is bitwise identical to Solve(ctx, bs[c], opts) on
// every transport, including under a failure schedule.
//
// The returned slices are aligned with bs: colErrs[c] reports a per-column
// breakdown or divergence (the corresponding Solution is zero-valued); the
// error return reports a global failure (communication, cancellation,
// unrecoverable data loss) aborting the whole block. Like Solve, it is safe
// for concurrent use; use CanSolveBlock to decide between this path and
// looped per-column solves.
func (ps *Prepared) SolveBlock(ctx context.Context, bs [][]float64, opts SolveOpts) ([]Solution, []error, error) {
	if len(bs) == 0 {
		return nil, nil, nil
	}
	if err := validateBatch(bs, ps.n); err != nil {
		return nil, nil, err
	}
	if err := ps.blockRejection(opts); err != nil {
		return nil, nil, fmt.Errorf("esr: blocked solve rejected (use looped per-column solves): %w", err)
	}
	return ps.solveOn(ctx, nil, nil, bs, opts)
}

// SolveChunked runs a batch through SolveBlock in blockSize-wide groups,
// sequentially: each group already runs all ranks in lockstep, so
// group-level concurrency would only fight over cores. onBlock, when
// non-nil, observes the width of every group that completed. The returned
// solutions are aligned with bs. A global failure of any group aborts the
// batch (nil solutions); per-column breakdowns leave their entries
// zero-valued and come back joined, each naming its column.
func (ps *Prepared) SolveChunked(ctx context.Context, bs [][]float64, opts SolveOpts, blockSize int, onBlock func(width int)) ([]Solution, error) {
	sols := make([]Solution, 0, len(bs))
	var errs []error
	for lo := 0; lo < len(bs); lo += blockSize {
		hi := min(lo+blockSize, len(bs))
		blockSols, colErrs, err := ps.SolveBlock(ctx, bs[lo:hi], opts)
		if err != nil {
			return nil, err
		}
		if onBlock != nil {
			onBlock(hi - lo)
		}
		sols = append(sols, blockSols...)
		for c, cerr := range colErrs {
			if cerr != nil {
				errs = append(errs, fmt.Errorf("rhs %d: %w", lo+c, cerr))
			}
		}
	}
	return sols, errors.Join(errs...)
}
