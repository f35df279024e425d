package main

import (
	"context"
	"fmt"
	"time"

	esr "repro"
	"repro/internal/sparse"
)

// library drives the public esr package: the setup, solve and batch phases
// shared by the untraced and the traced pass.
type library struct {
	problem
	ref, prot *esr.Solver
	// xProt[k] is the protected solution of in.rhs[k], the looped-Solve
	// reference a batch column is compared with bit for bit; recHash keeps
	// the fingerprint of each (rhs, victims) recovered solution so that a
	// repeat of the same solve is held to the same bits.
	xProt   [][]float64
	recHash map[[2]int]uint64
}

func sessionOpts(p int) []esr.Option {
	return []esr.Option{esr.WithRanks(ranks), esr.WithPhi(p), esr.WithTolerance(tol), esr.WithLocalTolerance(localTol)}
}

// setupCycle times one NewSolver(phi 3) + Close.
func setupCycle(a *sparse.CSR) (float64, error) {
	t := time.Now()
	s, err := esr.NewSolver(a, sessionOpts(phi)...)
	if err != nil {
		return 0, err
	}
	err = s.Close()
	return time.Since(t).Seconds(), err
}

// sampleSetup times the setup cycles that fit the budget, at least minN.
func sampleSetup(a *sparse.CSR, budget time.Duration, minN int) ([]float64, error) {
	var firstErr error
	cycles := sample(budget, minN, 1<<30, func() float64 {
		d, err := setupCycle(a)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return d
	})
	return cycles, firstErr
}

// openLibrary prepares the two sessions (phi 0 and phi 3) and runs one
// discarded solve on each, which also fixes the failure iteration.
func openLibrary(p problem) (*library, error) {
	l := &library{problem: p, xProt: make([][]float64, len(p.in.rhs)), recHash: map[[2]int]uint64{}}
	var err error
	if l.ref, err = esr.NewSolver(l.a, sessionOpts(0)...); err != nil {
		return nil, err
	}
	if l.prot, err = esr.NewSolver(l.a, sessionOpts(phi)...); err != nil {
		l.ref.Close()
		return nil, err
	}
	ctx := context.Background()
	warm, err := l.ref.Solve(ctx, l.in.rhs[0])
	if err == nil {
		_, err = l.prot.Solve(ctx, l.in.rhs[0])
	}
	if err != nil {
		l.close()
		return nil, err
	}
	l.failIter = warm.Result.Iterations / 2
	return l, nil
}

func (l *library) close() {
	l.ref.Close()
	l.prot.Close()
}

// checked times one Solve and verifies the answer outside the timed region.
func (l *library) checked(s *esr.Solver, k int, want int, opts ...esr.Option) (float64, esr.Solution) {
	b := l.in.rhs[k]
	t := time.Now()
	sol, err := s.Solve(context.Background(), b, opts...)
	d := time.Since(t).Seconds()
	switch {
	case err != nil:
	case !sol.Result.Converged:
		err = fmt.Errorf("solve did not converge")
	case len(sol.Result.Reconstructions) != want:
		err = fmt.Errorf("%d reconstruction episodes, want %d", len(sol.Result.Reconstructions), want)
	default:
		err = l.check.residual(l.a, sol.X, b)
	}
	l.tally.op(err)
	return d, sol
}

// protected runs one phi-3 failure-free solve of rhs k; every repeat must
// reproduce the first answer bit for bit.
func (l *library) protected(k int, opts ...esr.Option) float64 {
	d, sol := l.checked(l.prot, k, 0, opts...)
	if l.xProt[k] == nil {
		l.xProt[k] = sol.X
	} else if !sameBits(l.xProt[k], sol.X) {
		l.tally.op(fmt.Errorf("protected solve of rhs %d not bit-identical to its first run", k))
	}
	return d
}

// recovered runs one phi-3 solve of rhs k in which three contiguous ranks
// starting at `start` fail together at failIter. The repo's contract is
// determinism, not equality with the failure-free run (the reconstruction
// solves a subsystem to localTol), so a repeat of the same (rhs, victims)
// must reproduce the first answer bit for bit.
func (l *library) recovered(k, start int, opts ...esr.Option) (float64, esr.Solution) {
	sched := esr.NewSchedule(esr.Simultaneous(l.failIter, esr.ContiguousRanks(start, phi, ranks)...))
	d, sol := l.checked(l.prot, k, 1, append(opts, esr.WithSchedule(sched))...)
	key := [2]int{k, start}
	h := bitsHash(sol.X)
	if first, seen := l.recHash[key]; !seen {
		l.recHash[key] = h
	} else if first != h {
		l.tally.op(fmt.Errorf("recovered solve of rhs %d, victims from rank %d, not bit-identical to its first run", k, start))
	}
	return d, sol
}

// triples holds the timings of interleaved (reference, protected,
// recovered) solves; diff is recovered - protected of the same triple.
type triples struct {
	ref, prot, rec, diff []float64
	reconstruct          []float64 // Result.ReconstructTime of the recovered solves
	subIters             int
}

func (tr *triples) count() int { return len(tr.ref) }

// runTriples solves R, P, F, R, P, F, ... on the two prepared sessions, so
// that machine drift hits the three series alike, and appends the timings to
// tr. The right-hand side and the failing ranks follow from how many triples
// tr already holds, so a second call goes on where the first stopped.
func (l *library) runTriples(tr *triples, budget time.Duration, minN int) {
	repeat(budget, minN, 1<<30, func() {
		t := tr.count()
		k := t % len(l.in.rhs)
		start := (l.in.firstVictim + t) % ranks
		r, _ := l.checked(l.ref, k, 0)
		p := l.protected(k)
		f, sol := l.recovered(k, start)
		tr.ref = append(tr.ref, r)
		tr.prot = append(tr.prot, p)
		tr.rec = append(tr.rec, f)
		tr.diff = append(tr.diff, f-p)
		tr.reconstruct = append(tr.reconstruct, sol.Result.ReconstructTime.Seconds())
		if len(sol.Result.Reconstructions) == 1 && tr.subIters == 0 {
			tr.subIters = sol.Result.Reconstructions[0].SubIterations
		}
	})
}

// runBatches times SolveBatch calls of k right-hand sides at the default
// block size and returns the columns-per-second of each call. Every column
// must equal the looped Solve of the same right-hand side bit for bit.
func (l *library) runBatches(k int, budget time.Duration, minN int) []float64 {
	bs := make([][]float64, k)
	for c := range bs {
		bs[c] = l.in.rhs[c%len(l.in.rhs)]
	}
	return sample(budget, minN, 1<<30, func() float64 {
		t := time.Now()
		sols, err := l.prot.SolveBatch(context.Background(), bs)
		d := time.Since(t).Seconds()
		if err != nil || len(sols) != k {
			for range bs {
				l.tally.op(fmt.Errorf("SolveBatch: %d solutions, err %v", len(sols), err))
			}
			return float64(k) / d
		}
		for c, sol := range sols {
			r := c % len(l.in.rhs)
			if l.xProt[r] == nil {
				l.protected(r)
			}
			switch {
			case !sol.Result.Converged:
				err = fmt.Errorf("batch column %d did not converge", c)
			case !sameBits(sol.X, l.xProt[r]):
				err = fmt.Errorf("batch column %d not bit-identical to the looped Solve", c)
			default:
				err = l.check.residual(l.a, sol.X, bs[c])
			}
			l.tally.op(err)
		}
		return float64(k) / d
	})
}
