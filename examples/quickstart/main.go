// Quickstart: solve a 2D Poisson problem with the resilient PCG solver and
// survive a single node failure mid-solve — the paper's base scenario —
// then serve several right-hand sides from one prepared Solver session.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	esr "repro"
)

func main() {
	// A 96x96 five-point Laplacian: the "hello world" of SPD systems.
	a := esr.Poisson2D(96, 96)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}

	// Reference solve on 8 simulated compute nodes, no resilience.
	ref, err := esr.Solve(a, b, esr.Config{Ranks: 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reference:   %3d iterations, relres %.2e, %v\n",
		ref.Result.Iterations, ref.Result.RelResidual(), ref.Result.SolveTime.Round(0))

	// Resilient solve: keep one redundant copy of the two most recent
	// search directions (phi = 1) and kill rank 3 a third of the way in.
	failAt := ref.Result.Iterations / 3
	sol, err := esr.Solve(a, b, esr.Config{
		Ranks:    8,
		Phi:      1,
		Schedule: esr.NewSchedule(esr.Simultaneous(failAt, 3)),
	})
	if err != nil {
		log.Fatal(err)
	}
	rec := sol.Result.Reconstructions[0]
	fmt.Printf("with failure: %3d iterations, relres %.2e, %v\n",
		sol.Result.Iterations, sol.Result.RelResidual(), sol.Result.SolveTime.Round(0))
	fmt.Printf("  rank %v failed at iteration %d; exact state reconstruction took %v (%d subsystem iterations)\n",
		rec.FailedRanks, rec.Iteration, rec.Duration.Round(0), rec.SubIterations)
	fmt.Printf("  residual deviation metric (Eqn. 7): %.2e\n", sol.Result.Delta)
	fmt.Printf("verified ||b-Ax||: reference %.2e vs resilient %.2e\n",
		esr.ResidualNorm(a, ref.X, b), esr.ResidualNorm(a, sol.X, b))

	// Serving many right-hand sides on the same system? Prepare once, solve
	// many: the session partitions the matrix, builds the redundancy
	// protocol and factors the preconditioner a single time, then serves
	// concurrent solves against that state.
	s, err := esr.NewSolver(a, esr.Config{
		Ranks:    8,
		Phi:      1,
		Schedule: esr.NewSchedule(esr.Simultaneous(failAt, 3)),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	rhs := make([][]float64, 4)
	for k := range rhs {
		v := make([]float64, a.Rows)
		for i := range v {
			v[i] = 1 + 0.5*math.Sin(float64(k+1)*float64(i+1))
		}
		rhs[k] = v
	}
	sols, err := s.SolveBatch(context.Background(), rhs)
	if err != nil {
		log.Fatal(err)
	}
	for k, bsol := range sols {
		fmt.Printf("session rhs %d: %3d iterations, ||b-Ax|| = %.2e\n",
			k, bsol.Result.Iterations, esr.ResidualNorm(a, bsol.X, rhs[k]))
	}
}
