package localsolve

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/matgen"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// randomSPDDense builds an SPD dense matrix B'B + n*I.
func randomSPDDense(rng *rand.Rand, n int) []float64 {
	b := make([]float64, n*n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += b[k*n+i] * b[k*n+j]
			}
			if i == j {
				s += float64(n)
			}
			a[i*n+j] = s
		}
	}
	return a
}

func TestCholeskySolve(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 5, 20, 50} {
		a := randomSPDDense(rng, n)
		c, err := NewCholesky(n, a)
		if err != nil {
			t.Fatal(err)
		}
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				b[i] += a[i*n+j] * xTrue[j]
			}
		}
		x := make([]float64, n)
		c.Solve(x, b)
		if d := vec.MaxAbsDiff(x, xTrue); d > 1e-9 {
			t.Fatalf("n=%d: max error %g", n, d)
		}
	}
}

func TestCholeskyRejectsNonSPD(t *testing.T) {
	a := []float64{1, 2, 2, 1} // indefinite
	if _, err := NewCholesky(2, a); err == nil {
		t.Fatal("expected failure for indefinite matrix")
	}
	if _, err := NewCholesky(2, []float64{1, 2, 3}); err == nil {
		t.Fatal("expected failure for wrong length")
	}
}

func TestCholeskyTriangularOps(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 12
	a := randomSPDDense(rng, n)
	c, err := NewCholesky(n, a)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	// MulL then SolveL round-trips.
	y := make([]float64, n)
	c.MulL(y, x)
	back := make([]float64, n)
	c.SolveL(back, y)
	if d := vec.MaxAbsDiff(back, x); d > 1e-10 {
		t.Fatalf("L round trip error %g", d)
	}
	// MulLT then SolveLT round-trips.
	c.MulLT(y, x)
	c.SolveLT(back, y)
	if d := vec.MaxAbsDiff(back, x); d > 1e-10 {
		t.Fatalf("L^T round trip error %g", d)
	}
	// L (L^T x) == A x.
	u := make([]float64, n)
	c.MulLT(u, x)
	c.MulL(y, u)
	want := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want[i] += a[i*n+j] * x[j]
		}
	}
	for i := range want {
		if math.Abs(y[i]-want[i]) > 1e-8*(1+math.Abs(want[i])) {
			t.Fatalf("LL^T x != A x at %d", i)
		}
	}
}

func TestILU0ExactOnTriangularProduct(t *testing.T) {
	// For a banded SPD matrix, ILU(0) of a tridiagonal matrix is exact
	// (no fill-in is discarded): Solve must invert A to high accuracy.
	n := 50
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 4)
		if i > 0 {
			coo.Add(i, i-1, -1)
		}
		if i < n-1 {
			coo.Add(i, i+1, -1)
		}
	}
	a := coo.ToCSR()
	f, err := NewILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	a.MulVec(b, xTrue)
	x := make([]float64, n)
	f.Solve(x, b)
	if d := vec.MaxAbsDiff(x, xTrue); d > 1e-10 {
		t.Fatalf("tridiagonal ILU0 should be exact, error %g", d)
	}
}

func TestILU0MultiplyInvertsSolve(t *testing.T) {
	a := matgen.Poisson2D(9, 9)
	f, err := NewILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	r := make([]float64, a.Rows)
	for i := range r {
		r[i] = rng.NormFloat64()
	}
	z := make([]float64, a.Rows)
	f.Solve(z, r)
	back := make([]float64, a.Rows)
	f.Multiply(back, z)
	if d := vec.MaxAbsDiff(back, r); d > 1e-9 {
		t.Fatalf("Multiply(Solve(r)) != r, error %g", d)
	}
}

func TestILU0AsPreconditionerReducesCGIterations(t *testing.T) {
	a := matgen.Poisson2D(20, 20)
	n := a.Rows
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	plain := CG(a, make([]float64, n), b, nil, 1e-10, 1000)
	if !plain.Converged {
		t.Fatal("plain CG did not converge")
	}
	f, err := NewILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	pre := CG(a, make([]float64, n), b, f, 1e-10, 1000)
	if !pre.Converged {
		t.Fatal("ILU-CG did not converge")
	}
	if pre.Iterations >= plain.Iterations {
		t.Fatalf("ILU0 preconditioning did not help: %d vs %d iterations",
			pre.Iterations, plain.Iterations)
	}
}

func TestILU0Errors(t *testing.T) {
	rect := sparse.FromDense(1, 2, []float64{1, 2})
	if _, err := NewILU0(rect); err == nil {
		t.Fatal("expected error for rectangular matrix")
	}
	noDiag := sparse.FromDense(2, 2, []float64{0, 1, 1, 0})
	if _, err := NewILU0(noDiag); err == nil {
		t.Fatal("expected error for missing diagonal")
	}
}

func TestIC0FactorOfTridiagonalIsExact(t *testing.T) {
	n := 40
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 4)
		if i > 0 {
			coo.Add(i, i-1, -1)
		}
		if i < n-1 {
			coo.Add(i, i+1, -1)
		}
	}
	a := coo.ToCSR()
	f, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	a.MulVec(b, xTrue)
	x := make([]float64, n)
	f.Solve(x, b)
	if d := vec.MaxAbsDiff(x, xTrue); d > 1e-10 {
		t.Fatalf("tridiagonal IC0 should be exact, error %g", d)
	}
	// Multiply is the inverse of Solve.
	y := make([]float64, n)
	f.Multiply(y, x)
	if d := vec.MaxAbsDiff(y, b); d > 1e-8 {
		t.Fatalf("Multiply(Solve) error %g", d)
	}
}

func TestIC0TriangularRoundTrips(t *testing.T) {
	a := matgen.Poisson2D(7, 7)
	f, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	n := a.Rows
	rng := rand.New(rand.NewSource(6))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := make([]float64, n)
	back := make([]float64, n)
	f.MulL(y, x)
	f.SolveL(back, y)
	if d := vec.MaxAbsDiff(back, x); d > 1e-9 {
		t.Fatalf("IC0 L round trip error %g", d)
	}
	f.MulLT(y, x)
	f.SolveLT(back, y)
	if d := vec.MaxAbsDiff(back, x); d > 1e-9 {
		t.Fatalf("IC0 L^T round trip error %g", d)
	}
}

func TestIC0AsSplitPreconditioner(t *testing.T) {
	a := matgen.Poisson2D(15, 15)
	f, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	n := a.Rows
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%3) + 1
	}
	pre := CG(a, make([]float64, n), b, f, 1e-10, 1000)
	if !pre.Converged {
		t.Fatal("IC0-CG did not converge")
	}
	plain := CG(a, make([]float64, n), b, nil, 1e-10, 1000)
	if pre.Iterations >= plain.Iterations {
		t.Fatalf("IC0 did not reduce iterations: %d vs %d", pre.Iterations, plain.Iterations)
	}
}

func TestCGSolvesGeneratedSystems(t *testing.T) {
	for _, e := range matgen.Catalogue() {
		a := e.Build(matgen.ScaleTiny)
		n := a.Rows
		rng := rand.New(rand.NewSource(7))
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		a.MulVec(b, xTrue)
		x := make([]float64, n)
		res := CG(a, x, b, nil, 1e-12, 5*n)
		if !res.Converged {
			t.Fatalf("%s: CG did not converge (relres %g)", e.ID, res.RelResidual)
		}
		// Solution accuracy follows the residual reduction scaled by the
		// conditioning; generated matrices are well conditioned.
		if d := vec.MaxAbsDiff(x, xTrue); d > 1e-6 {
			t.Fatalf("%s: solution error %g", e.ID, d)
		}
	}
}

func TestCGZeroRHS(t *testing.T) {
	a := matgen.Poisson2D(5, 5)
	x := make([]float64, a.Rows)
	res := CG(a, x, make([]float64, a.Rows), nil, 1e-10, 100)
	if !res.Converged || res.Iterations != 0 {
		t.Fatalf("zero RHS: %+v", res)
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("x must stay zero")
		}
	}
}

func TestCGRespectsInitialGuess(t *testing.T) {
	a := matgen.Poisson2D(8, 8)
	n := a.Rows
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = 1
	}
	b := make([]float64, n)
	a.MulVec(b, xTrue)
	// Start from the exact solution: 0 iterations needed.
	x := append([]float64(nil), xTrue...)
	res := CG(a, x, b, nil, 1e-10, 100)
	if !res.Converged || res.Iterations != 0 {
		t.Fatalf("exact initial guess: %+v", res)
	}
}

func TestCGMaxIter(t *testing.T) {
	a := matgen.Poisson2D(30, 30)
	n := a.Rows
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	res := CG(a, make([]float64, n), b, nil, 1e-14, 2)
	if res.Converged {
		t.Fatal("2 iterations cannot converge to 1e-14 on this problem")
	}
	if res.Iterations != 2 {
		t.Fatalf("iterations = %d, want 2", res.Iterations)
	}
}

func BenchmarkLocalCGPoisson(b *testing.B) {
	a := matgen.Poisson2D(50, 50)
	n := a.Rows
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = 1
	}
	f, _ := NewILU0(a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := make([]float64, n)
		CG(a, x, rhs, f, 1e-10, 1000)
	}
}
