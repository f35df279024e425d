package core

import (
	"fmt"

	"repro/internal/distmat"
	"repro/internal/precond"
	"repro/internal/vec"
)

// recurrence is everything an iteration method contributes to the driver:
// the steps in which Alg. 1 (PCG) and Saad's Alg. 9.2 (split-preconditioner
// CG) actually differ. The loop, the poll points, the strategies and the ESR
// episode are shared; whatever re-derives recurrence state — the iteration-0
// setup, a cold restart, the post-recovery r'z, the twin vote, the drift
// check and its repair — goes through these same steps, so a method is one
// implementation of this interface. Every step is a pure function of its
// inputs per column, which is what keeps column c of a block bitwise equal to
// its solo solve.
type recurrence interface {
	// residual0 rebuilds the residual-side vector r[c] of the given columns
	// from x[c] and b[c], leaving the rank-local ||b - A x[c]||^2 in
	// st.fused[2c]. Collective (one SpMM over the columns).
	residual0(st *SolverState, cols []int) error
	// tu returns T(u[c]), the vector the update r[c] -= alpha T(u[c])
	// subtracts.
	tu(st *SolverState, c int) []float64
	// z rebuilds z[c] from r[c] for every column pair in one application.
	z(st *SolverState, z, r []distmat.Vector) error
	// rnorm2 is the rank-local squared norm of the true residual that the
	// residual-side block r stands for. scratch has r's length and may be
	// clobbered.
	rnorm2(st *SolverState, r, scratch []float64) float64
	// rz is the rank-local part of column c's scalar r'z.
	rz(st *SolverState, c int) float64
	// normTerms returns the blocks whose vec.Dot2 is column c's rank-local
	// (rnorm2, rz) pair, bit-identical to the two steps but formed in one
	// pass over the blocks; U[c] is the scratch it may fill.
	normTerms(st *SolverState, c int) (x, y, u, v []float64)
}

// recurrenceFor selects the recurrence by what the preconditioner is: a
// SplitPrecond carries the M = L L^T factors only Alg. 9.2 uses.
func recurrenceFor(m Precond) (recurrence, error) {
	sp, ok := m.(SplitPrecond)
	if !ok {
		return pcgRecurrence{}, nil
	}
	if sp.P == nil {
		return nil, fmt.Errorf("core: SplitPrecond needs a split preconditioner")
	}
	return splitRecurrence{sp.P}, nil
}

// pick returns the given columns of vs (vs itself for the full set).
func pick(vs []distmat.Vector, cols []int) []distmat.Vector {
	if len(cols) == len(vs) {
		return vs
	}
	out := make([]distmat.Vector, len(cols))
	for i, c := range cols {
		out[i] = vs[c]
	}
	return out
}

// pcgRecurrence is Alg. 1: R is the residual r, Z = M^{-1} r, RZ = r'z.
type pcgRecurrence struct{}

func (pcgRecurrence) residual0(st *SolverState, cols []int) error {
	if err := st.A.ResidualBlock(st.E, pick(st.R, cols), pick(st.B, cols), pick(st.X, cols), -1); err != nil {
		return err
	}
	for _, c := range cols {
		st.fused[2*c] = vec.Nrm2Sq(st.R[c].Local)
	}
	return nil
}

func (pcgRecurrence) tu(st *SolverState, c int) []float64 { return st.U[c].Local }

func (pcgRecurrence) z(st *SolverState, z, r []distmat.Vector) error {
	return st.M.Apply(z, r, &st.pre)
}

func (pcgRecurrence) rnorm2(st *SolverState, r, _ []float64) float64 {
	return vec.Nrm2Sq(r)
}

func (pcgRecurrence) rz(st *SolverState, c int) float64 {
	return vec.Dot(st.R[c].Local, st.Z[c].Local)
}

func (pcgRecurrence) normTerms(st *SolverState, c int) (x, y, u, v []float64) {
	r, z := st.R[c].Local, st.Z[c].Local
	return r, r, r, z
}

// splitRecurrence is Saad's Alg. 9.2 with a block-local split preconditioner
// M_i = L_i L_i^T — the paper's SPCG variant ([23, Alg. 5]). R holds the
// transformed residual rhat = L^{-1} r, Z holds zhat = L^{-T} rhat (so that
// p = zhat + beta p, exactly PCG's direction update), RZ the scalar
// rho = rhat'rhat. The stopping criterion stays on the true residual norm
// ||r|| = ||L rhat||, recomputed block-locally, so results are comparable
// with PCG's. Between the r update and the z rebuild Z doubles as the
// block-local scratch vector.
type splitRecurrence struct{ m precond.Split }

func (s splitRecurrence) residual0(st *SolverState, cols []int) error {
	// r = b - A x lands in Z, then rhat = L^{-1} r.
	if err := st.A.ResidualBlock(st.E, pick(st.Z, cols), pick(st.B, cols), pick(st.X, cols), -1); err != nil {
		return err
	}
	for _, c := range cols {
		st.fused[2*c] = vec.Nrm2Sq(st.Z[c].Local)
		s.m.SolveL(st.R[c].Local, st.Z[c].Local)
	}
	return nil
}

func (s splitRecurrence) tu(st *SolverState, c int) []float64 {
	s.m.SolveL(st.Z[c].Local, st.U[c].Local) // L^{-1} A p, block-local
	return st.Z[c].Local
}

func (s splitRecurrence) z(_ *SolverState, z, r []distmat.Vector) error {
	for c := range z {
		s.m.SolveLT(z[c].Local, r[c].Local)
	}
	return nil
}

func (s splitRecurrence) rnorm2(st *SolverState, r, scratch []float64) float64 {
	s.m.MulL(scratch, r) // r = L rhat
	return vec.Nrm2Sq(scratch)
}

func (splitRecurrence) rz(st *SolverState, c int) float64 {
	return vec.Nrm2Sq(st.R[c].Local)
}

func (s splitRecurrence) normTerms(st *SolverState, c int) (x, y, u, v []float64) {
	r, t := st.R[c].Local, st.U[c].Local
	s.m.MulL(t, r) // r = L rhat
	return t, t, r, r
}
