// Package precond implements the node-local preconditioners used by the
// resilient PCG stack. All preconditioners here are block-diagonal across
// the rank partition (each rank preconditions with an operator M_i acting on
// its own block), the configuration the paper's experiments use ("block
// Jacobi as a preconditioner ... solving the preconditioner blocks exactly",
// Sec. 6).
//
// Every preconditioner exposes both directions:
//
//   - ApplyInv: z = M_i^{-1} r, used in every PCG iteration, and
//   - ApplyM:   y = M_i x, used by the ESR reconstruction when M (not
//     M^{-1}) is given (the [23, Alg. 3] variant: r_If = M_{If,If} z_If for
//     block-aligned preconditioners).
//
// The Split interface additionally exposes the M = L L^T factors for the
// split-preconditioner CG variant (SPCG, [23, Alg. 5]).
package precond

import (
	"fmt"

	"repro/internal/localsolve"
	"repro/internal/sparse"
	"repro/internal/xerr"
)

// Preconditioner is a node-local block preconditioner M_i.
type Preconditioner interface {
	// Name identifies the preconditioner in results and logs.
	Name() string
	// ApplyInv computes z = M_i^{-1} r. z and r have the local block length
	// and must not alias.
	ApplyInv(z, r []float64)
	// ApplyM computes y = M_i x. y and x must not alias.
	ApplyM(y, x []float64)
}

// BatchApplier is an optional interface for preconditioners with a fused
// multi-column inverse application: one structure traversal serves all k
// columns. Column c of ApplyInvK must be bitwise identical to
// ApplyInv(z[c], r[c]) — the blocked solver relies on it for per-column
// bit-identity with single-RHS solves. Preconditioners without it are
// applied column by column.
type BatchApplier interface {
	// ApplyInvK computes z[c] = M_i^{-1} r[c] for every column. work is the
	// caller's scratch of at least len(z)·len(z[0]) floats, which the
	// application may overwrite; concurrent applications need their own.
	ApplyInvK(z, r [][]float64, work []float64)
}

// Split is a preconditioner with an explicit symmetric split M = L L^T.
type Split interface {
	Preconditioner
	// SolveL solves L y = b.
	SolveL(y, b []float64)
	// SolveLT solves L^T y = b.
	SolveLT(y, b []float64)
	// MulL computes y = L x.
	MulL(y, x []float64)
	// MulLT computes y = L^T x.
	MulLT(y, x []float64)
}

// Identity is the trivial preconditioner M = I.
type Identity struct{}

// Name implements Preconditioner.
func (Identity) Name() string { return "identity" }

// ApplyInv implements Preconditioner.
func (Identity) ApplyInv(z, r []float64) { copy(z, r) }

// ApplyM implements Preconditioner.
func (Identity) ApplyM(y, x []float64) { copy(y, x) }

// ApplyInvK implements BatchApplier: a copy per column.
func (Identity) ApplyInvK(z, r [][]float64, _ []float64) {
	for c := range z {
		copy(z[c], r[c])
	}
}

// Jacobi is the diagonal (point Jacobi) preconditioner M = diag(A). Its
// applications are element-wise independent — the one preconditioner family
// with no cross-row data flow — and run as plain sequential loops on the
// calling rank's goroutine, like every other preconditioner here.
type Jacobi struct {
	d []float64
}

// NewJacobi builds a Jacobi preconditioner from the local diagonal entries,
// which must all be non-zero.
func NewJacobi(diag []float64) (*Jacobi, error) {
	for i, v := range diag {
		if v == 0 {
			return nil, xerr.Newf(xerr.InvalidArgument, "precond: zero diagonal at local index %d", i)
		}
	}
	return &Jacobi{d: append([]float64(nil), diag...)}, nil
}

// Name implements Preconditioner.
func (j *Jacobi) Name() string { return "jacobi" }

// ApplyInv implements Preconditioner: z = r ./ diag(A).
func (j *Jacobi) ApplyInv(z, r []float64) {
	for i := range z {
		z[i] = r[i] / j.d[i]
	}
}

// ApplyInvK implements BatchApplier: each diagonal entry is loaded once and
// divided into all k columns. Element-wise per column, so trivially
// bit-identical to k ApplyInv calls.
func (j *Jacobi) ApplyInvK(z, r [][]float64, _ []float64) {
	d := j.d
	for i := range d {
		v := d[i]
		for c := range z {
			z[c][i] = r[c][i] / v
		}
	}
}

// ApplyM implements Preconditioner: y = diag(A) .* x.
func (j *Jacobi) ApplyM(y, x []float64) {
	for i := range y {
		y[i] = j.d[i] * x[i]
	}
}

// BlockJacobiChol preconditions with the exact inverse of the local diagonal
// block A_{Ii,Ii} via dense Cholesky: the paper's "solving the
// preconditioner blocks exactly". Intended for moderate block sizes; use
// BlockJacobiILU for large blocks.
type BlockJacobiChol struct {
	block *sparse.CSR
	chol  *localsolve.Cholesky
}

// NewBlockJacobiChol factorises the local block exactly.
func NewBlockJacobiChol(block *sparse.CSR) (*BlockJacobiChol, error) {
	if block.Rows != block.Cols {
		return nil, fmt.Errorf("precond: block Jacobi needs a square block")
	}
	ch, err := localsolve.NewCholesky(block.Rows, block.ToDense())
	if err != nil {
		return nil, fmt.Errorf("precond: block Cholesky: %w", err)
	}
	return &BlockJacobiChol{block: block.Clone(), chol: ch}, nil
}

// Name implements Preconditioner.
func (b *BlockJacobiChol) Name() string { return "block-jacobi(cholesky)" }

// ApplyInv implements Preconditioner.
func (b *BlockJacobiChol) ApplyInv(z, r []float64) { b.chol.Solve(z, r) }

// ApplyM implements Preconditioner: M_i = A_{Ii,Ii}, so this is a local SpMV.
func (b *BlockJacobiChol) ApplyM(y, x []float64) { b.block.MulVec(y, x) }

// Block returns the preconditioner's diagonal block.
func (b *BlockJacobiChol) Block() *sparse.CSR { return b.block }

// BlockJacobiILU preconditions with an ILU(0) factorisation of the local
// diagonal block: the scalable stand-in for exact block solves on large
// blocks (the substitution for the paper's MKL sparse direct solves).
type BlockJacobiILU struct {
	ilu *localsolve.ILU0
}

// NewBlockJacobiILU factorises the local block with ILU(0).
func NewBlockJacobiILU(block *sparse.CSR) (*BlockJacobiILU, error) {
	f, err := localsolve.NewILU0(block)
	if err != nil {
		return nil, fmt.Errorf("precond: block ILU: %w", err)
	}
	return &BlockJacobiILU{ilu: f}, nil
}

// Name implements Preconditioner.
func (b *BlockJacobiILU) Name() string { return "block-jacobi(ilu0)" }

// ApplyInv implements Preconditioner.
func (b *BlockJacobiILU) ApplyInv(z, r []float64) { b.ilu.Solve(z, r) }

// ApplyInvK implements BatchApplier: one fused triangular sweep for all k
// columns (ILU0.SolveK), bitwise identical per column to ApplyInv.
func (b *BlockJacobiILU) ApplyInvK(z, r [][]float64, work []float64) { b.ilu.SolveK(z, r, work) }

// ApplyM implements Preconditioner: M_i = L U, applied by Multiply.
func (b *BlockJacobiILU) ApplyM(y, x []float64) { b.ilu.Multiply(y, x) }

// SSOR is the node-local symmetric successive overrelaxation preconditioner
//
//	M_i = 1/(omega(2-omega)) (D + omega L) D^{-1} (D + omega L)^T
//
// of the (symmetric) local block, with L its strict lower triangle.
type SSOR struct {
	omega float64
	d     []float64
	low   *sparse.CSR // strict lower triangle
	up    *sparse.CSR // strict upper triangle (= L^T for symmetric blocks)
}

// NewSSOR builds the SSOR preconditioner of the symmetric local block for
// relaxation parameter omega in (0, 2).
func NewSSOR(block *sparse.CSR, omega float64) (*SSOR, error) {
	if block.Rows != block.Cols {
		return nil, fmt.Errorf("precond: SSOR needs a square block")
	}
	if omega <= 0 || omega >= 2 {
		return nil, fmt.Errorf("precond: SSOR omega %g out of (0,2)", omega)
	}
	n := block.Rows
	d := make([]float64, n)
	lowC := sparse.NewCOO(n, n)
	upC := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		cols, vals := block.Row(i)
		for t, j := range cols {
			switch {
			case j == i:
				d[i] = vals[t]
			case j < i:
				lowC.Add(i, j, vals[t])
			default:
				upC.Add(i, j, vals[t])
			}
		}
		if d[i] == 0 {
			return nil, xerr.Newf(xerr.InvalidArgument, "precond: SSOR zero diagonal at %d", i)
		}
	}
	return &SSOR{omega: omega, d: d, low: lowC.ToCSR(), up: upC.ToCSR()}, nil
}

// Name implements Preconditioner.
func (s *SSOR) Name() string { return fmt.Sprintf("ssor(%.2f)", s.omega) }

// ApplyInv implements Preconditioner: z = omega(2-omega) T^{-T} D T^{-1} r
// with T = D + omega L, via one forward and one backward triangular sweep.
// Both sweeps and the final scale run in z, which allocates nothing; z must
// not alias r, as the interface says.
func (s *SSOR) ApplyInv(z, r []float64) {
	n := len(s.d)
	z = z[:n]
	// T u = r, forward, into z.
	for i := 0; i < n; i++ {
		acc := r[i]
		cols, vals := s.low.Row(i)
		for t, j := range cols {
			acc -= s.omega * vals[t] * z[j]
		}
		z[i] = acc / s.d[i]
	}
	// T^T w = D u, backward (T^T = D + omega U on symmetric blocks). w
	// overwrites u in place: position i is read before it is written and
	// positions j > i already hold w.
	for i := n - 1; i >= 0; i-- {
		acc := s.d[i] * z[i]
		cols, vals := s.up.Row(i)
		for t, j := range cols {
			acc -= s.omega * vals[t] * z[j]
		}
		z[i] = acc / s.d[i]
	}
	c := s.omega * (2 - s.omega)
	for i := range z {
		z[i] = c * z[i]
	}
}

// ApplyM implements Preconditioner: y = M_i x multiplied out.
func (s *SSOR) ApplyM(y, x []float64) {
	n := len(s.d)
	// w = (D + omega L)^T x = D x + omega U x (U = L^T on symmetric blocks).
	w := make([]float64, n)
	for i := 0; i < n; i++ {
		acc := s.d[i] * x[i]
		cols, vals := s.up.Row(i)
		for t, j := range cols {
			acc += s.omega * vals[t] * x[j]
		}
		w[i] = acc
	}
	// w = D^{-1} w
	for i := range w {
		w[i] /= s.d[i]
	}
	// y = (D + omega L) w, scaled by 1/(omega(2-omega)).
	c := 1 / (s.omega * (2 - s.omega))
	for i := 0; i < n; i++ {
		acc := s.d[i] * w[i]
		cols, vals := s.low.Row(i)
		for t, j := range cols {
			acc += s.omega * vals[t] * w[j]
		}
		y[i] = acc * c
	}
}

// IC0Split is the split preconditioner M = L L^T with L the IC(0) factor of
// the local block; it drives the SPCG solver variant.
type IC0Split struct {
	f *localsolve.IC0
}

// NewIC0Split factorises the SPD local block with IC(0).
func NewIC0Split(block *sparse.CSR) (*IC0Split, error) {
	f, err := localsolve.NewIC0(block)
	if err != nil {
		return nil, fmt.Errorf("precond: IC0: %w", err)
	}
	return &IC0Split{f: f}, nil
}

// Name implements Preconditioner.
func (s *IC0Split) Name() string { return "ic0-split" }

// ApplyInv implements Preconditioner.
func (s *IC0Split) ApplyInv(z, r []float64) { s.f.Solve(z, r) }

// ApplyM implements Preconditioner.
func (s *IC0Split) ApplyM(y, x []float64) { s.f.Multiply(y, x) }

// SolveL implements Split.
func (s *IC0Split) SolveL(y, b []float64) { s.f.SolveL(y, b) }

// SolveLT implements Split.
func (s *IC0Split) SolveLT(y, b []float64) { s.f.SolveLT(y, b) }

// MulL implements Split.
func (s *IC0Split) MulL(y, x []float64) { s.f.MulL(y, x) }

// MulLT implements Split.
func (s *IC0Split) MulLT(y, x []float64) { s.f.MulLT(y, x) }

// compile-time interface checks
var (
	_ Preconditioner = Identity{}
	_ Preconditioner = (*Jacobi)(nil)
	_ Preconditioner = (*BlockJacobiChol)(nil)
	_ Preconditioner = (*BlockJacobiILU)(nil)
	_ Preconditioner = (*SSOR)(nil)
	_ Split          = (*IC0Split)(nil)
	_ BatchApplier   = Identity{}
	_ BatchApplier   = (*Jacobi)(nil)
	_ BatchApplier   = (*BlockJacobiILU)(nil)
)
