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
func recoverBlocks(e *distmat.Env, a *distmat.Matrix, iter int, failed []bool, failedList []int, gens []int, out [][]float64) error {
	me := e.Pos
	amFailed := failed[me]
	w := 1
	if a.Ret != nil {
		w = a.Ret.Width()
	}

	// Sub-phase A: coverage status broadcast (deterministic abort).
	var plan commplan.Gather
	status := 0
	if amFailed {
		if a.Holders == nil {
			return fmt.Errorf("core: recoverBlocks needs a resilience-enabled matrix")
		}
		plan = a.Holders.Assign(failed)
		if len(plan.Uncovered) > 0 {
			status = 1
		}
	}
	anyAbort := status == 1
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

	// Sub-phase B: requests (retention positions) and responses, all
	// generations in one payload.
	if amFailed {
		for r := 0; r < e.Size(); r++ {
			if r == me || failed[r] {
				continue
			}
			if err := e.C.SendOwned(cluster.CatRecovery, r, tagRecPReq, nil, plan.Pos[plan.Ptr[r]:plan.Ptr[r+1]]); err != nil {
				return err
			}
		}
	} else {
		for _, f := range failedList {
			req, err := e.C.Recv(f, tagRecPReq)
			if err != nil {
				return err
			}
			payload := e.C.GetFloats(len(req.I) * len(gens) * w)[:0]
			for _, g := range gens {
				if payload, err = a.Ret.ValuesAt(payload, g, f, req.I); err != nil {
					return fmt.Errorf("core: recovery gather (gen %d from %d): %w", g, f, err)
				}
			}
			if err := e.C.SendOwned(cluster.CatRecovery, f, tagRecPResp, payload, nil); err != nil {
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
			rows := plan.Row[plan.Ptr[r]:plan.Ptr[r+1]]
			if len(vals) != len(rows)*len(gens)*w {
				return fmt.Errorf("core: recovery response from %d has %d values, want %d",
					r, len(vals), len(rows)*len(gens)*w)
			}
			for k := range gens {
				part := vals[k*len(rows)*w : (k+1)*len(rows)*w]
				for t, off := range rows {
					copy(out[k][off*w:off*w+w], part[t*w:t*w+w])
				}
			}
			e.C.PutFloats(vals)
		}
	}
	return nil
}

// gatherGhost collects, on every replacement, the entries of k distributed
// vectors owned by survivors at the ghost columns of the given matrix's
// failed rows (the halo of the reconstruction product A_{If, I\If} x, Alg. 2
// line 7). Survivors send ONE k-strided frame per replacement (k consecutive
// values per ghost element), replacements receive each into the matrix's own
// ghost slots (Matrix.GhostSpan): the result is the k-strided slot buffer and
// the mask of the slots filled, on replacements (nil on survivors). Entries
// the failed ranks own travel no further: the x-system's leader reads them
// off the other replacements' blocks of w and x (leadXSystem).
func gatherGhost(e *distmat.Env, mat *distmat.Matrix, locals [][]float64, failed []bool, failedList []int) ([]float64, []bool, error) {
	me := e.Pos
	k := len(locals)
	if !failed[me] {
		lo, _ := mat.P.Range(me)
		for _, f := range failedList {
			idx := mat.Plan.SendTo[f]
			if len(idx) == 0 {
				continue
			}
			vals := e.C.GetFloats(len(idx) * k)
			for t, g := range idx {
				for c := 0; c < k; c++ {
					vals[t*k+c] = locals[c][g-lo]
				}
			}
			if err := e.C.SendOwned(cluster.CatRecovery, f, tagRecXHalo, vals, nil); err != nil {
				return nil, nil, err
			}
		}
		return nil, nil, nil
	}
	ghost, live := make([]float64, mat.NumGhosts()*k), make([]bool, mat.NumGhosts())
	for r := 0; r < e.Size(); r++ {
		lo, hi := mat.GhostSpan(r)
		if r == me || failed[r] || lo == hi {
			continue
		}
		vals, err := e.C.RecvFloats(r, tagRecXHalo)
		if err != nil {
			return nil, nil, err
		}
		if len(vals) != (hi-lo)*k {
			return nil, nil, fmt.Errorf("core: ghost gather from %d: %d values, want %d", r, len(vals), (hi-lo)*k)
		}
		copy(ghost[lo*k:hi*k], vals)
		for s := lo; s < hi; s++ {
			live[s] = true
		}
		e.C.PutFloats(vals)
	}
	return ghost, live, nil
}
