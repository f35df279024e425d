package engine

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
)

// SolveBlock solves the k systems A x[c] = bs[c] in lockstep against the
// prepared state: one k-column SpMM, one k-strided halo frame per neighbor
// and fused length-k allreduces per iteration, under whatever method,
// strategy, schedule and detector setting opts resolves to — an ESR episode
// reconstructs all k columns of a lost block at once, a checkpoint, cold
// restart or twin shadow covers every column still running. Column c of the
// returned solutions is bitwise identical to Solve(ctx, bs[c], opts) on every
// transport, and its Result carries the same counts.
//
// The returned slices are aligned with bs: colErrs[c] reports a per-column
// breakdown, divergence or detected corruption (the corresponding Solution
// is zero-valued); the error return reports a global failure (communication,
// cancellation, unrecoverable data loss) aborting the whole block. Like
// Solve, it is safe for concurrent use.
func (ps *Prepared) SolveBlock(ctx context.Context, bs [][]float64, opts Config) ([]Solution, []error, error) {
	if len(bs) == 0 {
		return nil, nil, nil
	}
	cfg, err := ps.resolveBatch(bs, &opts)
	if err != nil {
		return nil, nil, err
	}
	return ps.solveOn(ctx, nil, nil, bs, cfg, core.Options{})
}

// SolveChunked runs a batch in groups of the resolved policy's BlockSize
// (1: one column at a time), sequentially: each group already runs all ranks
// in lockstep, so group-level concurrency would only fight over cores. The
// policy and every column are validated once, before the first group runs.
// onBlock, when non-nil, observes the width of every group that completed.
// The returned solutions are aligned with bs. A global failure of any group
// aborts the batch (nil solutions); per-column failures leave their entries
// zero-valued and come back joined, each naming its column.
func (ps *Prepared) SolveChunked(ctx context.Context, bs [][]float64, opts Config, onBlock func(width int)) ([]Solution, error) {
	cfg, err := ps.resolveBatch(bs, &opts)
	if err != nil {
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

// resolveBatch resolves a batch's policy and fail-fast checks every column
// of bs against the prepared system — length and finiteness — with a typed
// *InvalidRHSError naming the first offending column, before any solve
// runs: solveOn slices the columns unchecked.
func (ps *Prepared) resolveBatch(bs [][]float64, opts *Config) (*Config, error) {
	cfg, err := ps.policy(opts)
	if err != nil {
		return nil, err
	}
	return cfg, validateBatch(bs, ps.n)
}
