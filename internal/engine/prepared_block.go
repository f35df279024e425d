package engine

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
)

// SolveChunked runs a batch in groups of the resolved policy's BlockSize
// (1: one column at a time), sequentially: each group already runs all ranks
// in lockstep, so group-level concurrency would only fight over cores. A
// group of k columns is one solveOn: one k-column SpMM, one k-strided halo
// frame per neighbor and fused length-k allreduces per iteration, under
// whatever method, strategy, schedule and detector setting opts resolves to —
// an ESR episode reconstructs all k columns of a lost block at once, a
// checkpoint, cold restart or twin shadow covers every column still running.
// Column c is bitwise identical to Solve(ctx, bs[c], opts) on every
// transport, and its Result carries the same counts. Like Solve, it is safe
// for concurrent use.
//
// The policy and every column are validated once, before the first group
// runs. onBlock, when non-nil, observes the width of every group that
// completed. The returned solutions are aligned with bs. A global failure of
// any group (communication, cancellation, unrecoverable data loss) aborts
// the batch (nil solutions); per-column failures — a breakdown, divergence
// or detected corruption — leave their entries zero-valued and come back
// joined, each naming its column.
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
	sols := make([]Solution, 0, len(bs))
	var errs []error
	for lo := 0; lo < len(bs); lo += cfg.BlockSize {
		hi := min(lo+cfg.BlockSize, len(bs))
		blockSols, colErrs, err := ps.solveOn(ctx, nil, nil, bs[lo:hi], cfg, core.Options{})
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
