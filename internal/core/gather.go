package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/commplan"
	"repro/internal/distmat"
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
// failed rows (the halo of the reconstruction product A_{If, I\If} x, Alg. 2
// line 7). Survivors send ONE k-strided frame per replacement (k consecutive
// values per ghost element), replacements receive; the result maps global
// index -> value per column on replacements (nil on survivors). Entries the
// failed ranks own travel no further: the x-system's leader reads them off
// the other replacements' blocks of w and x (solveXSystem).
func gatherGhost(e *distmat.Env, mat *distmat.Matrix, locals [][]float64, failed map[int]bool, failedList []int) ([]map[int]float64, error) {
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
			if err := e.C.SendFloats(cluster.CatRecovery, f, tagRecXHalo, vals); err != nil {
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
		vals, err := e.C.RecvFloats(r, tagRecXHalo)
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
