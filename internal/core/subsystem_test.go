package core

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/distmat"
	"repro/internal/faults"
	"repro/internal/matgen"
	"repro/internal/partition"
	"repro/internal/precond"
	"repro/internal/sparse"
)

// rebuiltSubsystemSolve is the x-system solve as it was before the leader
// solved it alone: extract A_{If,If} with renumbered columns from a, run the
// full distributed matrix construction over the failed blocks on a runtime of
// their own (failed rank failedList[t] as rank t, so the allreduces combine in
// the order the failed ranks' subgroup used), factor each extracted own block
// and run the driver's PCG there. Kept as the reference the leader's solve
// must match bit for bit. rhs[t][c] is failed rank failedList[t]'s block of
// right-hand side c; it returns the solutions' blocks the same way and the
// iteration count of every column.
func rebuiltSubsystemSolve(a *sparse.CSR, p partition.Partition, failedList []int, rhs [][][]float64, tol float64) ([][][]float64, []int, error) {
	sizes := make([]int, len(failedList))
	var ifIdx []int
	for t, f := range failedList {
		flo, fhi := p.Range(f)
		sizes[t] = fhi - flo
		for g := flo; g < fhi; g++ {
			ifIdx = append(ifIdx, g)
		}
	}
	subP := partition.FromSizes(sizes)
	sol := make([][][]float64, len(failedList))
	iters := make([]int, len(rhs[0]))
	err := cluster.New(len(failedList)).Run(func(c *cluster.Comm) error {
		e := distmat.WorldEnv(c)
		lo, hi := p.Range(failedList[e.Pos])
		localRows := make([]int, hi-lo)
		for i := range localRows {
			localRows[i] = i
		}
		subA, err := distmat.NewMatrix(e, a.RowBlock(lo, hi).Submatrix(localRows, ifIdx), subP, 0, 0)
		if err != nil {
			return err
		}
		ilu, err := precond.NewBlockJacobiILU(subA.OwnBlock())
		if err != nil {
			return err
		}
		sol[e.Pos] = make([][]float64, len(rhs[e.Pos]))
		for col, b := range rhs[e.Pos] {
			xf := distmat.NewVector(subP, e.Pos)
			bv := distmat.Vector{P: subP, Pos: e.Pos, Local: slices.Clone(b)}
			res, err := PCG(e, subA, xf, bv, LocalPrecond{P: ilu}, Options{Tol: tol, MaxIter: defaultLocalMaxIter(subP.N())})
			if err != nil {
				return err
			}
			sol[e.Pos][col] = xf.Local
			if e.Pos == 0 {
				iters[col] = res.Iterations
			}
		}
		return nil
	})
	return sol, iters, err
}

// serialCoupledSolve is the coupled x-system's reference: A_{If,If} taken
// from the global matrix a by Submatrix, and the driver's PCG on one rank
// over it, preconditioned by its own ILU(0). rhs holds the right-hand sides
// over all of If; it returns the solutions and iteration counts.
func serialCoupledSolve(a *sparse.CSR, p partition.Partition, failedList []int, rhs [][]float64, tol float64) ([][]float64, []int, error) {
	var ifIdx []int
	for _, f := range failedList {
		lo, hi := p.Range(f)
		for g := lo; g < hi; g++ {
			ifIdx = append(ifIdx, g)
		}
	}
	sub := a.Submatrix(ifIdx, ifIdx)
	subP := partition.NewBlockRow(sub.Rows, 1)
	sol, iters := make([][]float64, len(rhs)), make([]int, len(rhs))
	err := cluster.New(1).Run(func(c *cluster.Comm) error {
		e := distmat.WorldEnv(c)
		m, err := distmat.NewMatrix(e, sub, subP, 0, 0)
		if err != nil {
			return err
		}
		ilu, err := precond.NewBlockJacobiILU(m.OwnBlock())
		if err != nil {
			return err
		}
		for col := range rhs {
			xv := distmat.NewVector(subP, 0)
			bv := distmat.Vector{P: subP, Pos: 0, Local: slices.Clone(rhs[col])}
			res, err := PCG(e, m, xv, bv, LocalPrecond{P: ilu}, Options{Tol: tol, MaxIter: defaultLocalMaxIter(sub.Rows)})
			if err != nil {
				return err
			}
			sol[col], iters[col] = xv.Local, res.Iterations
		}
		return nil
	})
	return sol, iters, err
}

// TestSubsystemSolveMatchesRebuiltReference: the leader's solve of the
// x-system leaves bit for bit the solution and iteration count of its
// reference. An episode the rule refuses — the failed blocks' own factors,
// dot products combined in the group's reduction order — matches, for every
// failed block, the rebuilt subsystem PCG the failed ranks run together:
// with every block factored on the leader (what jacobi, SSOR, Cholesky and
// ic0/SPCG sessions get) and with the session's own ILU(0) factors handed
// down. An episode the rule couples matches a serial PCG over A_{If,If}
// with its own ILU(0), whatever the sessions hold. Both kinds occur below.
// "explicit-P" is a tridiagonal system with one-element halos.
func TestSubsystemSolveMatchesRebuiltReference(t *testing.T) {
	const ranks, phi, cols = 8, 3, 2
	problems := map[string]*sparse.CSR{
		"poisson":    matgen.Poisson2D(16, 16),
		"circuit":    matgen.CircuitLike(600, 2.9, 0.35, 3),
		"elasticity": matgen.Elasticity3D(6, 6, 6, 27, 8),
		"explicit-P": tridiagInverse(256),
	}
	var kinds [2]int // refused, coupled episodes seen
	defer func() {
		if !t.Failed() && (kinds[0] == 0 || kinds[1] == 0) {
			t.Errorf("%d refused and %d coupled episodes: want both kinds", kinds[0], kinds[1])
		}
	}()
	for name, a := range problems {
		// Five failed blocks: a sum over four or more partials is where the
		// group's tree order differs from summing in rank order.
		for _, failedList := range [][]int{{2, 3, 4}, {0, 6, 7}, {5}, {0, 1, 3, 4, 6}} {
			name, a, failedList := name, a, failedList
			t.Run(fmt.Sprintf("%s/%v", name, failedList), func(t *testing.T) {
				// What each failed rank holds, by its position in failedList:
				// its session matrix and ILU(0) and its blocks of the
				// right-hand sides.
				psi := len(failedList)
				blocks := make([]*distmat.Matrix, psi)
				sessions := make([]Precond, psi)
				rhs := make([][][]float64, psi)
				var mu sync.Mutex
				err := cluster.New(ranks).Run(func(c *cluster.Comm) error {
					e, parent, _, b, err := setupProblem(c, a, phi)
					if err != nil {
						return err
					}
					session, err := iluFactory(e, parent)
					if err != nil {
						return err
					}
					pos := slices.Index(failedList, e.Pos)
					if pos < 0 {
						return nil
					}
					two := make([]float64, len(b.Local))
					for i := range two {
						two[i] = math.Cos(float64(i) * 0.7)
					}
					mu.Lock()
					defer mu.Unlock()
					blocks[pos], sessions[pos], rhs[pos] = parent, session, [][]float64{b.Local, two}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				want, wantIters, err := rebuiltSubsystemSolve(a, blocks[0].P, failedList, rhs, 1e-14)
				if err != nil {
					t.Fatal(err)
				}
				// A coupled episode is held to the serial reference instead,
				// over the same right-hand sides.
				ref := "rebuilt"
				if sys, err := newSubsystem(blocks, sessions); err != nil {
					t.Fatal(err)
				} else if sys.coupled {
					kinds[1]++
					ref = "serial coupled"
					full := make([][]float64, cols)
					for col := range full {
						for p := range rhs {
							full[col] = append(full[col], rhs[p][col]...)
						}
					}
					sol, iters, err := serialCoupledSolve(a, blocks[0].P, failedList, full, 1e-14)
					if err != nil {
						t.Fatal(err)
					}
					wantIters = iters
					off := 0
					for p, f := range failedList {
						n := blocks[0].P.Size(f)
						for col := range want[p] {
							want[p][col] = sol[col][off : off+n]
						}
						off += n
					}
				} else {
					kinds[0]++
				}
				for _, tc := range []struct {
					label string
					precs []Precond
				}{{"factored on the leader", make([]Precond, psi)}, {"session ILU", sessions}} {
					sys, err := newSubsystem(blocks, tc.precs)
					if err != nil {
						t.Fatal(err)
					}
					for col := 0; col < cols; col++ {
						w, x := make([][]float64, psi), make([][]float64, psi)
						for p := range w {
							w[p], x[p] = rhs[p][col], make([]float64, len(rhs[p][col]))
						}
						iters, err := sys.solve(w, x, 1e-14, defaultLocalMaxIter(sys.n))
						if err != nil {
							t.Fatal(err)
						}
						if iters != wantIters[col] {
							t.Fatalf("%s, column %d: %d sub-iterations, %s %d", tc.label, col, iters, ref, wantIters[col])
						}
						for p := range x {
							for i := range x[p] {
								if math.Float64bits(x[p][i]) != math.Float64bits(want[p][col][i]) {
									t.Fatalf("%s, column %d, rank %d row %d: %x, %s %x",
										tc.label, col, failedList[p], i, x[p][i], ref, want[p][col][i])
								}
							}
						}
					}
				}
			})
		}
	}
}

// countSubsystemILU counts the x-system factorisations of the solves run
// inside body.
func countSubsystemILU(t *testing.T, body func()) int64 {
	t.Helper()
	var n atomic.Int64
	orig := newSubsystemILU
	newSubsystemILU = func(block *sparse.CSR) (precond.Preconditioner, error) {
		n.Add(1)
		return orig(block)
	}
	defer func() { newSubsystemILU = orig }()
	body()
	return n.Load()
}

// TestSubsystemReusesSessionILU: an episode the rule refuses factors
// nothing under an ILU(0) session, and every other session's leader factors
// each lost block once per episode — one per replacement per episode for
// jacobi and ic0/SPCG; an episode the rule couples factors A_{If,If} once,
// whatever the session holds. Poisson 18² on 8 ranks: blocks 1, 4 and 6 do
// not touch, so only adjacent victims couple.
func TestSubsystemReusesSessionILU(t *testing.T) {
	a := matgen.Poisson2D(18, 18)
	const ranks, phi = 8, 3
	refused := func() *faults.Schedule {
		return faults.NewSchedule(faults.Simultaneous(5, 1, 4, 6), faults.Simultaneous(9, 3))
	}
	coupled := func() *faults.Schedule {
		return faults.NewSchedule(faults.Simultaneous(5, 2, 3, 4), faults.Simultaneous(9, 6, 7))
	}
	const replacements, episodes = 3 + 1, 2 // of the refused schedule; of either
	jacobiFactory := func(_ *distmat.Env, m *distmat.Matrix) (Precond, error) {
		j, err := precond.NewJacobi(m.Diag())
		if err != nil {
			return nil, err
		}
		return LocalPrecond{P: j}, nil
	}
	pcg := func(mk precondFactory, sched func() *faults.Schedule) func() {
		return func() {
			out := runSolver(t, ranks, func(c *cluster.Comm, ss *sessionStub) (Result, distmat.Vector, error) {
				e, m, x, b, err := setupProblem(c, a, phi)
				if err != nil {
					return Result{}, x, err
				}
				pc, err := mk(e, m)
				if err != nil {
					return Result{}, x, err
				}
				res, err := ss.esrpcg(e, m, x, b, pc, Options{Tol: 1e-9}, sched())
				return res, x, err
			})
			if out.err != nil {
				t.Fatal(out.err)
			}
			if !out.res.Converged || len(out.res.Reconstructions) != episodes {
				t.Fatalf("converged=%v with %d episodes, want %d", out.res.Converged, len(out.res.Reconstructions), episodes)
			}
		}
	}
	spcg := func(sched func() *faults.Schedule) func() {
		return func() {
			out := runSPCG(t, ranks, phi, sched(), 1e-9)
			if out.err != nil {
				t.Fatal(out.err)
			}
			if !out.res.Converged || len(out.res.Reconstructions) != episodes {
				t.Fatalf("SPCG converged=%v with %d episodes, want %d", out.res.Converged, len(out.res.Reconstructions), episodes)
			}
		}
	}
	for _, tc := range []struct {
		name  string
		solve func()
		want  int64
	}{
		{"block-jacobi-ilu, refused", pcg(iluFactory, refused), 0},
		{"jacobi, refused", pcg(jacobiFactory, refused), replacements},
		{"ic0+spcg, refused", spcg(refused), replacements},
		{"block-jacobi-ilu, coupled", pcg(iluFactory, coupled), episodes},
		{"jacobi, coupled", pcg(jacobiFactory, coupled), episodes},
		{"ic0+spcg, coupled", spcg(coupled), episodes},
	} {
		if got := countSubsystemILU(t, tc.solve); got != tc.want {
			t.Errorf("%s session: %d x-system factorisations, want %d", tc.name, got, tc.want)
		}
	}
}

// TestEpisodeSendsNoSetupMessages: recovery re-reads static data, so a solve
// with a three-failure episode sends exactly the uncategorised (symbolic
// setup) messages of the failure-free solve — everything an episode sends is
// recovery, halo or collective traffic.
func TestEpisodeSendsNoSetupMessages(t *testing.T) {
	a := matgen.Poisson2D(16, 16)
	const ranks, phi = 8, 3
	setupMessages := func(sched *faults.Schedule) (int64, Result) {
		rt := cluster.New(ranks)
		var mu sync.Mutex
		var res0 Result
		ss := newSessionStub()
		err := rt.Run(func(c *cluster.Comm) error {
			e, m, x, b, err := setupProblem(c, a, phi)
			if err != nil {
				return err
			}
			pc, err := iluFactory(e, m)
			if err != nil {
				return err
			}
			res, err := ss.esrpcg(e, m, x, b, pc, Options{Tol: 1e-9}, sched)
			if c.Rank() == 0 {
				mu.Lock()
				res0 = res
				mu.Unlock()
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return rt.Counters().Messages(cluster.CatOther), res0
	}
	clean, _ := setupMessages(nil)
	failed, res := setupMessages(faults.NewSchedule(faults.Simultaneous(6, 0, 6, 7)))
	if len(res.Reconstructions) != 1 || res.Reconstructions[0].SubIterations == 0 {
		t.Fatalf("expected one episode with subsystem iterations, got %+v", res.Reconstructions)
	}
	if failed != clean {
		t.Fatalf("the episode sent %d setup messages (%d with it, %d failure-free)", failed-clean, failed, clean)
	}
}

// TestReconstructionPhasesAccountForTheEpisode: the per-phase clock reads
// tile the episode, the time the iteration was held up — they sum to no more
// than its duration and miss only the bookkeeping outside the phase loop. The
// leader's subsystem setup lies inside its x-system phase; the subsystem's
// assembly and solve run in the background, after the episode, and are
// reported at settle. Rank 0, whose Result the harness reports, leads the x-system of
// victims {0, 1, 2}; of victims {2, 3, 4} rank 2 leads, and rank 0 reports
// the leader's two times all the same.
func TestReconstructionPhasesAccountForTheEpisode(t *testing.T) {
	a := matgen.Poisson2D(16, 16)
	for _, victims := range [][]int{{0, 1, 2}, {2, 3, 4}} {
		out := runSolver(t, 8, func(c *cluster.Comm, ss *sessionStub) (Result, distmat.Vector, error) {
			e, m, x, b, err := setupProblem(c, a, 3)
			if err != nil {
				return Result{}, x, err
			}
			pc, err := iluFactory(e, m)
			if err != nil {
				return Result{}, x, err
			}
			res, err := ss.esrpcg(e, m, x, b, pc, Options{Tol: 1e-9}, faults.NewSchedule(faults.Simultaneous(6, victims...)))
			return res, x, err
		})
		if out.err != nil {
			t.Fatal(out.err)
		}
		rec := out.res.Reconstructions[0]
		var sum int64
		for _, d := range rec.Phases {
			sum += int64(d)
		}
		if sum <= 0 || sum > int64(rec.Duration) {
			t.Fatalf("victims %v: phases %v sum to %d ns, episode took %v", victims, rec.Phases, sum, rec.Duration)
		}
		if rec.SubsystemSetup <= 0 || victims[0] == 0 && rec.SubsystemSetup > rec.Phases[phaseXSystem-1] {
			t.Fatalf("victims %v: x-system setup %v, x-system phase %v", victims, rec.SubsystemSetup, rec.Phases[phaseXSystem-1])
		}
		if rec.SubsystemSolve <= 0 {
			t.Fatalf("victims %v: the background x-system solve reported %v", victims, rec.SubsystemSolve)
		}
	}
}

// TestXSystemCouplingRule: on the three workloads' generators at bench
// size, 8 ranks, the rule couples circuit's failed blocks, adjacent or not
// (its long-range links couple them all), and refuses Poisson's (too little
// coupling: 3 % adjacent, none apart) and elasticity's (its factor costs 17
// sweeps).
func TestXSystemCouplingRule(t *testing.T) {
	const ranks, phi = 8, 3
	for _, g := range benchGenerators() {
		mats, sessions := sessionBlocks(t, g.a, ranks, phi)
		for _, victims := range [][]int{{3, 4, 5}, {1, 4, 6}} {
			blocks, precs := make([]*distmat.Matrix, len(victims)), make([]Precond, len(victims))
			for t, f := range victims {
				blocks[t], precs[t] = mats[f], sessions[f]
			}
			sys, err := newSubsystem(blocks, precs)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := sys.coupled, g.name == "circuit"; got != want {
				t.Errorf("%s victims %v: coupled %v, want %v", g.name, victims, got, want)
			}
		}
	}
}

// TestLocalMaxIterDefault pins what Options.LocalMaxIter <= 0 selects.
func TestLocalMaxIterDefault(t *testing.T) {
	if got := [2]int{defaultLocalMaxIter(10), defaultLocalMaxIter(1000)}; got != [2]int{500, 20000} {
		t.Fatalf("default subsystem bounds for n = 10, 1000 are %v, want [500 20000]", got)
	}
}
