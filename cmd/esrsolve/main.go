// Command esrsolve solves an SPD system with the resilient ESR-PCG solver,
// optionally injecting node failures.
//
// The matrix comes either from a MatrixMarket file (-matrix file.mtx) or
// from a named generator (-gen poisson2d -size 128). The right-hand side is
// all ones unless -rhs is given.
//
// Examples:
//
//	esrsolve -gen poisson2d -size 96 -ranks 8 -phi 3 -fail 3@50% -failstart center
//	esrsolve -matrix system.mtx -phi 1 -fail 1@20%
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	esr "repro"
	"repro/internal/faults"
	"repro/internal/matgen"
)

func main() {
	var (
		matrixPath = flag.String("matrix", "", "MatrixMarket file with an SPD matrix")
		gen        = flag.String("gen", "poisson2d", "generator: poisson2d, poisson3d, elasticity, circuit, or catalogue id M1..M8")
		size       = flag.Int("size", 64, "generator size parameter (grid edge / node count)")
		ranks      = flag.Int("ranks", 8, "number of simulated compute nodes")
		phi        = flag.Int("phi", 0, "number of tolerated simultaneous node failures")
		failSpec   = flag.String("fail", "", "failure spec 'COUNT@PROGRESS%', e.g. '3@50%'")
		failStart  = flag.String("failstart", "start", "failed rank placement: start or center")
		prec       = flag.String("precond", esr.PrecondBlockJacobiILU, "preconditioner")
		tol        = flag.Float64("tol", 1e-8, "relative residual reduction target")
		rhsPath    = flag.String("rhs", "", "optional file with one RHS value per line")
	)
	flag.Parse()

	a, err := loadMatrix(*matrixPath, *gen, *size)
	if err != nil {
		fatal(err)
	}
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	if *rhsPath != "" {
		if err := loadRHS(*rhsPath, b); err != nil {
			fatal(err)
		}
	}

	// A failure schedule needs the iteration count: estimate it with a
	// cheap failure-free run first (the experiment harness does the same).
	var sched *esr.Schedule
	if *failSpec != "" {
		count, progress, err := parseFailSpec(*failSpec)
		if err != nil {
			fatal(err)
		}
		probe, err := esr.Solve(a, b, esr.Config{
			Ranks: *ranks, Preconditioner: *prec, Tol: *tol,
		})
		if err != nil {
			fatal(fmt.Errorf("probe solve: %w", err))
		}
		start := 0
		if *failStart == "center" {
			start = *ranks / 2
		}
		iter := faults.IterationAtProgress(progress, probe.Result.Iterations)
		victims := esr.ContiguousRanks(start, count, *ranks)
		sched = esr.NewSchedule(esr.Simultaneous(iter, victims...))
		fmt.Printf("failure plan: ranks %v fail at iteration %d (%.0f%% of %d)\n",
			victims, iter, 100*progress, probe.Result.Iterations)
	}

	sol, err := esr.Solve(a, b, esr.Config{
		Ranks:          *ranks,
		Phi:            *phi,
		Preconditioner: *prec,
		Tol:            *tol,
		Schedule:       sched,
	})
	if err != nil {
		fatal(err)
	}
	res := sol.Result
	fmt.Printf("matrix: n=%d nnz=%d  ranks=%d phi=%d precond=%s\n",
		a.Rows, a.NNZ(), *ranks, *phi, *prec)
	fmt.Printf("converged=%v iterations=%d relres=%.3e delta=%.3e\n",
		res.Converged, res.Iterations, res.RelResidual(), res.Delta)
	fmt.Printf("solve time=%v reconstruction time=%v episodes=%d\n",
		res.SolveTime.Round(0), res.ReconstructTime.Round(0), len(res.Reconstructions))
	for _, rec := range res.Reconstructions {
		fmt.Printf("  reconstruction at iteration %d: ranks %v, %d subsystem iterations, %v (restarts %d)\n",
			rec.Iteration, rec.FailedRanks, rec.SubIterations, rec.Duration.Round(0), rec.Restarts)
		ph := rec.Phases
		fmt.Printf("    phases on rank 0: scalars %v, p-gather %v, z/r %v, x-system hand-off %v (leader's setup %v), finalize %v; leader's background pcg %v\n",
			ph[0], ph[1], ph[2], ph[3], rec.SubsystemSetup, ph[4], rec.SubsystemSolve)
	}
	fmt.Printf("verified ||b-Ax|| = %.3e\n", esr.ResidualNorm(a, sol.X, b))
}

func loadMatrix(path, gen string, size int) (*esr.Matrix, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return esr.ReadMatrixMarket(f)
	}
	switch strings.ToLower(gen) {
	case "poisson2d":
		return esr.Poisson2D(size, size), nil
	case "poisson3d":
		return esr.Poisson3D(size, size, size), nil
	case "elasticity":
		return esr.Elasticity3D(size, size, size, 15, 1), nil
	case "circuit":
		return esr.CircuitLike(size*size, 3, 0.35, 1), nil
	}
	if e, err := matgen.ByID(strings.ToUpper(gen)); err == nil {
		return e.Build(matgen.ScaleSmall), nil
	}
	return nil, fmt.Errorf("unknown generator %q", gen)
}

func parseFailSpec(s string) (count int, progress float64, err error) {
	parts := strings.SplitN(s, "@", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("bad -fail spec %q (want COUNT@PROGRESS%%)", s)
	}
	count, err = strconv.Atoi(parts[0])
	if err != nil || count <= 0 {
		return 0, 0, fmt.Errorf("bad failure count in %q", s)
	}
	p := strings.TrimSuffix(parts[1], "%")
	pct, err := strconv.ParseFloat(p, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad progress in %q", s)
	}
	return count, pct / 100, nil
}

func loadRHS(path string, b []float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	fields := strings.Fields(string(data))
	if len(fields) != len(b) {
		return fmt.Errorf("rhs has %d values, want %d", len(fields), len(b))
	}
	for i, f := range fields {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return fmt.Errorf("bad rhs value %q", f)
		}
		b[i] = v
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "esrsolve:", err)
	os.Exit(1)
}
