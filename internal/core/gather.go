package core

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/commplan"
	"repro/internal/distmat"
	"repro/internal/precond"
)

// recoverBlocks runs the tailored redundant-copy gather protocol for the
// failed ranks: every replacement reconstructs, for each requested retention
// generation, its full block of the corresponding SpMV input vector from the
// copies surviving on other ranks.
//
// All ranks (survivors and replacements) must call it with identical
// arguments (failure knowledge is deterministic). On a replacement, out[k]
// is filled with the reconstructed block for gens[k]; on survivors, out is
// not touched. A DataLossError is returned on every rank when some element
// has no surviving copy.
//
// This is the phase-2 protocol of the ESR reconstruction, shared by the PCG
// and SPCG episodes.
//
// The protocol is width-aware: when the matrix's retention store was
// prepared with SetBlockWidth(w) (blocked multi-RHS solves), every element
// carries w consecutive values and out[k] receives the interleaved
// w-strided block. Width 1 is the single-RHS protocol unchanged.
func recoverBlocks(e *distmat.Env, a *distmat.Matrix, iter int, failed map[int]bool, failedList []int, gens []int, out [][]float64) error {
	me := e.Pos
	amFailed := failed[me]
	lo, _ := a.P.Range(me)
	w := 1
	if a.Ret != nil {
		w = a.Ret.Width()
	}

	// Sub-phase A: coverage status broadcast (deterministic abort).
	var byHolder map[int][]int
	status := 0
	if amFailed {
		if a.Red == nil {
			return fmt.Errorf("core: recoverBlocks needs a resilience-enabled matrix")
		}
		var uncovered []int
		byHolder, uncovered = commplan.AssignHolders(a.Red.Holders(), lo, failed)
		if len(uncovered) > 0 {
			status = 1
		}
	}
	anyAbort := false
	if amFailed {
		for r := 0; r < e.Size(); r++ {
			if r == me {
				continue
			}
			if err := e.C.Send(cluster.CatRecovery, r, tagRecStatus, nil, []int{status}); err != nil {
				return err
			}
		}
	}
	for _, f := range failedList {
		if f == me {
			if status == 1 {
				anyAbort = true
			}
			continue
		}
		msg, err := e.C.Recv(f, tagRecStatus)
		if err != nil {
			return err
		}
		if msg.I[0] == 1 {
			anyAbort = true
		}
	}
	if anyAbort {
		return &DataLossError{Iteration: iter, FailedRanks: failedList}
	}

	// Sub-phase B: requests and responses, all generations in one payload.
	if amFailed {
		for r := 0; r < e.Size(); r++ {
			if r == me || failed[r] {
				continue
			}
			if err := e.C.Send(cluster.CatRecovery, r, tagRecPReq, nil, byHolder[r]); err != nil {
				return err
			}
		}
	} else {
		for _, f := range failedList {
			req, err := e.C.Recv(f, tagRecPReq)
			if err != nil {
				return err
			}
			payload := []float64{}
			if len(req.I) > 0 {
				for _, g := range gens {
					vals, err := a.Ret.ValuesFor(g, f, req.I)
					if err != nil {
						return fmt.Errorf("core: recovery gather (gen %d from %d): %w", g, f, err)
					}
					payload = append(payload, vals...)
				}
			}
			if err := e.C.SendFloats(cluster.CatRecovery, f, tagRecPResp, payload); err != nil {
				return err
			}
		}
	}
	if amFailed {
		for r := 0; r < e.Size(); r++ {
			if r == me || failed[r] {
				continue
			}
			vals, err := e.C.RecvFloats(r, tagRecPResp)
			if err != nil {
				return err
			}
			idx := byHolder[r]
			if len(vals) != len(idx)*len(gens)*w {
				return fmt.Errorf("core: recovery response from %d has %d values, want %d",
					r, len(vals), len(idx)*len(gens)*w)
			}
			for k := range gens {
				part := vals[k*len(idx)*w : (k+1)*len(idx)*w]
				for t, g := range idx {
					copy(out[k][(g-lo)*w:(g-lo)*w+w], part[t*w:t*w+w])
				}
			}
		}
	}
	return nil
}

// gatherGhost collects, on every replacement, the entries of k distributed
// vectors owned by survivors at the ghost columns of the given matrix's
// failed rows (the halo needed by the reconstruction products
// A_{If, I\If} x). Survivors send ONE k-strided frame per replacement (k
// consecutive values per ghost element), replacements receive; the result
// maps global index -> value per column on replacements (nil on survivors).
// tag selects the message tag (distinct per use within one recovery).
func gatherGhost(e *distmat.Env, mat *distmat.Matrix, locals [][]float64, failed map[int]bool, failedList []int, tag int) ([]map[int]float64, error) {
	me := e.Pos
	k := len(locals)
	if !failed[me] {
		lo, _ := mat.P.Range(me)
		for _, f := range failedList {
			idx := mat.Plan.SendTo[f]
			if len(idx) == 0 {
				continue
			}
			vals := make([]float64, len(idx)*k)
			for t, g := range idx {
				for c := 0; c < k; c++ {
					vals[t*k+c] = locals[c][g-lo]
				}
			}
			if err := e.C.SendFloats(cluster.CatRecovery, f, tag, vals); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}
	ghosts := make([]map[int]float64, k)
	for c := range ghosts {
		ghosts[c] = map[int]float64{}
	}
	for r := 0; r < e.Size(); r++ {
		if r == me || failed[r] {
			continue
		}
		idx := mat.Plan.RecvFrom[r]
		if len(idx) == 0 {
			continue
		}
		vals, err := e.C.RecvFloats(r, tag)
		if err != nil {
			return nil, err
		}
		if len(vals) != len(idx)*k {
			return nil, fmt.Errorf("core: ghost gather from %d: %d values, want %d", r, len(vals), len(idx)*k)
		}
		for t, g := range idx {
			for c := 0; c < k; c++ {
				ghosts[c][g] = vals[t*k+c]
			}
		}
	}
	return ghosts, nil
}

// subsystemSolve solves mat_{If,If} sol[c] = rhs[c] for every column,
// distributed over the subgroup of failed ranks (each owning its block), with
// block-local ILU(0) preconditioned CG — the paper's recovery subsystem
// solver. Static data is re-read, never re-derived: the operator is mat's
// restricted view (distmat.Matrix.Restrict — mat's own localised kernel with
// the survivors' ghost slots held at zero, no symbolic exchange), and sub,
// when non-nil, is a preconditioner the session already holds for mat's
// blocks; only without one is mat's own block factored here. The columns are
// solved back to back through the one view, so each column's trajectory does
// not depend on which other columns share the episode. Only failed ranks
// participate; survivors must not call it. Returns the per-column iteration
// counts and the wall-clock split into setup (operator and preconditioner)
// and the PCG solves.
func subsystemSolve(e *distmat.Env, mat *distmat.Matrix, sub Precond, failedList []int, rhs, sol [][]float64, ctx int, tol float64, maxIter int) (iters []int, setup, solve time.Duration, err error) {
	startT := time.Now()
	subEnv, err := distmat.GroupEnv(e.C, failedList, ctx) // errors on a non-failed rank
	if err != nil {
		return nil, 0, 0, err
	}
	subA, err := mat.Restrict(subEnv, ctx)
	if err != nil {
		return nil, 0, 0, err
	}
	if sub == nil {
		if ilu, err := newSubsystemILU(mat.OwnBlock()); err == nil {
			sub = LocalPrecond{P: ilu}
		} else {
			sub = IdentityPrecond()
		}
	}
	if maxIter <= 0 {
		maxIter = defaultLocalMaxIter(subA.P.N())
	}
	solveT := time.Now()
	iters = make([]int, len(rhs))
	for c := range rhs {
		xf := distmat.NewVector(subA.P, subA.Pos)
		bv := distmat.Vector{P: subA.P, Pos: subA.Pos, Local: rhs[c]}
		res, err := PCG(subEnv, subA, xf, bv, sub, Options{Tol: tol, MaxIter: maxIter})
		if err != nil {
			return nil, 0, 0, err
		}
		if !res.Converged && res.RelResidual() > 1e-6 {
			return nil, 0, 0, fmt.Errorf("core: reconstruction subsystem stagnated at column %d (relres %.2e)", c, res.RelResidual())
		}
		copy(sol[c], xf.Local)
		iters[c] = res.Iterations
	}
	return iters, solveT.Sub(startT), time.Since(solveT), nil
}

// newSubsystemILU factors a lost block for the subsystem PCG of a session
// that holds no ILU(0) of it. A variable so a test can count factorisations.
var newSubsystemILU = precond.NewBlockJacobiILU

// defaultLocalMaxIter is the subsystem iteration bound Options.LocalMaxIter
// <= 0 selects for a subsystem of n unknowns.
func defaultLocalMaxIter(n int) int {
	return max(20*n, 500)
}
