// Package localsolve provides the node-local numerical kernels of the
// solver stack: dense Cholesky factorisation for exact block-Jacobi
// preconditioning, ILU(0)/IC(0) incomplete factorisations, sparse triangular
// solves and multiplies, and a sequential (P)CG used to solve the local
// linear systems arising in the ESR reconstruction (paper Alg. 2, lines 6
// and 8, and Sec. 6: "an approximate solver based on ILU factorization").
package localsolve

import (
	"fmt"
	"math"

	"repro/internal/xerr"
)

// Cholesky is a dense Cholesky factorisation A = L L^T of an SPD matrix,
// stored as the lower triangle of a row-major n x n array. The transpose
// L^T is kept as well (row-major, i.e. U = L^T with its rows contiguous):
// the backward substitution then walks memory sequentially instead of
// striding by n, which is what makes the factor cheap to apply once per PCG
// iteration in a prepared multi-solve session.
type Cholesky struct {
	n  int
	l  []float64
	lt []float64 // row-major L^T: lt[i*n+k] = l[k*n+i] for k >= i
}

// NewCholesky factorises the dense row-major SPD matrix a (n x n). It fails
// if a pivot is non-positive (the matrix is not numerically SPD).
func NewCholesky(n int, a []float64) (*Cholesky, error) {
	if len(a) != n*n {
		return nil, fmt.Errorf("localsolve: Cholesky needs %d entries, got %d", n*n, len(a))
	}
	l := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a[i*n+j]
			for k := 0; k < j; k++ {
				s -= l[i*n+k] * l[j*n+k]
			}
			if i == j {
				if s <= 0 {
					return nil, xerr.Newf(xerr.InvalidArgument, "localsolve: non-positive pivot %g at %d (matrix not SPD)", s, i)
				}
				l[i*n+i] = math.Sqrt(s)
			} else {
				l[i*n+j] = s / l[j*n+j]
			}
		}
	}
	lt := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for k := i; k < n; k++ {
			lt[i*n+k] = l[k*n+i]
		}
	}
	return &Cholesky{n: n, l: l, lt: lt}, nil
}

// N returns the dimension of the factorised matrix.
func (c *Cholesky) N() int { return c.n }

// Solve computes x such that A x = b, overwriting x (which may alias b).
func (c *Cholesky) Solve(x, b []float64) {
	n := c.n
	if len(x) != n || len(b) != n {
		panic("localsolve: Cholesky.Solve dimension mismatch")
	}
	// forward: L y = b
	for i := 0; i < n; i++ {
		s := b[i]
		row := c.l[i*n : i*n+n]
		for k := 0; k < i; k++ {
			s -= row[k] * x[k]
		}
		x[i] = s / row[i]
	}
	// backward: L^T x = y, on the contiguous transposed factor
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		row := c.lt[i*n : i*n+n]
		for k := i + 1; k < n; k++ {
			s -= row[k] * x[k]
		}
		x[i] = s / row[i]
	}
}

// SolveL solves L y = b (forward substitution only).
func (c *Cholesky) SolveL(y, b []float64) {
	n := c.n
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= c.l[i*n+k] * y[k]
		}
		y[i] = s / c.l[i*n+i]
	}
}

// SolveLT solves L^T x = b (backward substitution only).
func (c *Cholesky) SolveLT(x, b []float64) {
	n := c.n
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		row := c.lt[i*n : i*n+n]
		for k := i + 1; k < n; k++ {
			s -= row[k] * x[k]
		}
		x[i] = s / row[i]
	}
}

// MulL computes y = L x.
func (c *Cholesky) MulL(y, x []float64) {
	n := c.n
	for i := n - 1; i >= 0; i-- {
		var s float64
		for k := 0; k <= i; k++ {
			s += c.l[i*n+k] * x[k]
		}
		y[i] = s
	}
}

// MulLT computes y = L^T x.
func (c *Cholesky) MulLT(y, x []float64) {
	n := c.n
	for i := 0; i < n; i++ {
		var s float64
		for k := i; k < n; k++ {
			s += c.l[k*n+i] * x[k]
		}
		y[i] = s
	}
}
