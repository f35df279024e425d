package localsolve

import (
	"repro/internal/sparse"
	"repro/internal/vec"
)

// Solver is any node-local preconditioner application z = M^{-1} r.
// *Cholesky, *ILU0 and *IC0 all satisfy it.
type Solver interface {
	Solve(z, r []float64)
}

// identitySolver is the trivial preconditioner.
type identitySolver struct{}

func (identitySolver) Solve(z, r []float64) { copy(z, r) }

// Identity returns the identity Solver.
func Identity() Solver { return identitySolver{} }

// CGResult reports the outcome of a local CG solve.
type CGResult struct {
	// Iterations performed.
	Iterations int
	// RelResidual is the final residual norm relative to the initial one.
	RelResidual float64
	// Converged reports whether the relative tolerance was reached.
	Converged bool
}

// CG runs a sequential preconditioned conjugate gradient on the SPD CSR
// matrix a, solving a x = b in place in x (initial guess respected). It
// stops when the residual norm has been reduced by relTol relative to the
// initial residual, or after maxIter iterations.
//
// It stays as the one serial oracle: core's reference solutions and the
// benchmark's serial-PCG rung call it, and it shares no code with what they
// check. The x-system's serial PCG (core's subsystem.solve) runs on an
// episode's own operator and preconditioners, so it cannot be that oracle.
func CG(a *sparse.CSR, x, b []float64, m Solver, relTol float64, maxIter int) CGResult {
	n := a.Rows
	if m == nil {
		m = Identity()
	}
	r := make([]float64, n)
	z := make([]float64, n)
	p := make([]float64, n)
	ap := make([]float64, n)

	a.MulVec(r, x)
	vec.Axpby(1, b, -1, r) // r = b - A x
	r0 := vec.Nrm2(r)
	if r0 == 0 {
		return CGResult{Iterations: 0, RelResidual: 0, Converged: true}
	}
	m.Solve(z, r)
	copy(p, z)
	rz := vec.Dot(r, z)
	res := CGResult{RelResidual: 1}
	for it := 0; it < maxIter; it++ {
		a.MulVec(ap, p)
		pap := vec.Dot(p, ap)
		if pap == 0 {
			break
		}
		alpha := rz / pap
		vec.Axpy(alpha, p, x)
		vec.Axpy(-alpha, ap, r)
		res.Iterations = it + 1
		rn := vec.Nrm2(r)
		res.RelResidual = rn / r0
		if res.RelResidual <= relTol {
			res.Converged = true
			return res
		}
		m.Solve(z, r)
		rzNew := vec.Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		vec.Axpby(1, z, beta, p)
	}
	return res
}
