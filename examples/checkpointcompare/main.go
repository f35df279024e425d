// Checkpointcompare: ESR versus checkpoint/restart versus cold restart, the
// comparison that motivates the paper (Sec. 1.2: C/R "imposes a usually
// considerable runtime overhead due to continuously saving the state"; ESR
// avoids it by keeping only the redundant search-direction copies that the
// SpMV moves anyway).
//
// Every protection scheme runs through the public session API — one
// esr.NewSolver per strategy, selected with Config.Strategy — so this is
// exactly the code path the engine and the esrd daemon execute, and the
// overhead/recovery numbers come from Solver.StrategyStats.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"time"

	esr "repro"
)

const (
	ranks = 8
	phi   = 3
)

func main() {
	a := esr.CircuitLike(3200, 3.2, 0.4, 5)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1 + math.Sin(float64(i)*0.13)
	}
	fmt.Printf("problem: n=%d nnz=%d, %d ranks\n", a.Rows, a.NNZ(), ranks)

	// Probe the unprotected reference for the iteration count and baseline
	// runtime, then fail 3 ranks at 50% progress.
	probe, _ := solveWithStats(a, b, nil, esr.Config{})
	failAt := probe.Result.Iterations / 2
	sched := esr.NewSchedule(esr.Simultaneous(failAt, 3, 4, 5))
	fmt.Printf("reference: %d iterations in %v; failures: ranks 3-5 at iteration %d\n\n",
		probe.Result.Iterations, probe.Result.SolveTime.Round(time.Millisecond), failAt)

	fmt.Printf("%-34s %8s %8s %10s %12s %14s\n", "protection", "iters", "work", "solve", "recovery", "extra floats")

	row := func(name string, protection esr.Config) {
		sol, stats := solveWithStats(a, b, sched, protection)
		fmt.Printf("%-34s %8d %8d %10v %12v %14d\n",
			name, sol.Result.Iterations, sol.Result.WorkIterations,
			sol.Result.SolveTime.Round(time.Millisecond), sol.Result.ReconstructTime.Round(time.Microsecond),
			stats.RedundancyFloats+stats.RecoveryFloats+stats.CheckpointFloats)
	}

	row(fmt.Sprintf("ESR (phi=%d)", phi), esr.Config{Phi: phi})
	for _, interval := range []int{5, 20, 50} {
		row(fmt.Sprintf("checkpoint/restart (every %d)", interval),
			esr.Config{Strategy: esr.StrategyCheckpoint, CheckpointInterval: interval})
	}
	row("cold restart", esr.Config{Strategy: esr.StrategyRestart})

	fmt.Println("\n'extra floats' counts the protection traffic: ESR's redundant search-")
	fmt.Println("direction elements vs the state volume C/R ships to reliable storage.")
	fmt.Println("C/R additionally redoes every iteration since the last checkpoint (see the")
	fmt.Println("'work' column), while ESR resumes from the exact failure iteration; cold")
	fmt.Println("restart redoes everything and serves as the lower bound on protection cost.")
}

func solveWithStats(a *esr.Matrix, b []float64, sched *esr.Schedule, protection esr.Config) (esr.Solution, esr.StrategyStats) {
	s, err := esr.NewSolver(a, esr.Config{Ranks: ranks}, protection)
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	sol, err := s.Solve(context.Background(), b, esr.Config{Schedule: sched})
	if err != nil {
		log.Fatal(err)
	}
	if !sol.Result.Converged {
		log.Fatalf("%s solve did not converge", s.StrategyName())
	}
	return sol, s.StrategyStats()
}
