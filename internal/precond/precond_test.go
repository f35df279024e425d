package precond

import (
	"math/rand"
	"testing"

	"repro/internal/matgen"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// all preconditioners must satisfy ApplyM(ApplyInv(r)) == r: the
// reconstruction relies on M being the exact inverse action of M^{-1}
// (paper Alg. 2 line 6 via the M-given variant).
func testRoundTrip(t *testing.T, p Preconditioner, n int, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	r := make([]float64, n)
	for i := range r {
		r[i] = rng.NormFloat64()
	}
	z := make([]float64, n)
	back := make([]float64, n)
	p.ApplyInv(z, r)
	p.ApplyM(back, z)
	if d := vec.MaxAbsDiff(back, r); d > tol {
		t.Fatalf("%s: ApplyM(ApplyInv(r)) differs from r by %g", p.Name(), d)
	}
	// And the other direction.
	p.ApplyM(z, r)
	p.ApplyInv(back, z)
	if d := vec.MaxAbsDiff(back, r); d > tol {
		t.Fatalf("%s: ApplyInv(ApplyM(r)) differs from r by %g", p.Name(), d)
	}
}

func block(t *testing.T) *sparse.CSR {
	t.Helper()
	return matgen.Poisson2D(8, 8)
}

func TestIdentityRoundTrip(t *testing.T) {
	testRoundTrip(t, Identity{}, 10, 0)
}

func TestJacobiRoundTrip(t *testing.T) {
	b := block(t)
	j, err := NewJacobi(b.Diag())
	if err != nil {
		t.Fatal(err)
	}
	testRoundTrip(t, j, b.Rows, 1e-12)
}

func TestJacobiRejectsZeroDiag(t *testing.T) {
	if _, err := NewJacobi([]float64{1, 0, 2}); err == nil {
		t.Fatal("expected error")
	}
}

func TestBlockJacobiCholRoundTrip(t *testing.T) {
	b := block(t)
	p, err := NewBlockJacobiChol(b)
	if err != nil {
		t.Fatal(err)
	}
	testRoundTrip(t, p, b.Rows, 1e-8)
}

func TestBlockJacobiCholIsExactInverse(t *testing.T) {
	// ApplyInv must solve A_blk z = r exactly (to rounding).
	b := block(t)
	p, err := NewBlockJacobiChol(b)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	zTrue := make([]float64, b.Rows)
	for i := range zTrue {
		zTrue[i] = rng.NormFloat64()
	}
	r := make([]float64, b.Rows)
	b.MulVec(r, zTrue)
	z := make([]float64, b.Rows)
	p.ApplyInv(z, r)
	if d := vec.MaxAbsDiff(z, zTrue); d > 1e-9 {
		t.Fatalf("exact block solve error %g", d)
	}
}

func TestBlockJacobiILURoundTrip(t *testing.T) {
	b := block(t)
	p, err := NewBlockJacobiILU(b)
	if err != nil {
		t.Fatal(err)
	}
	testRoundTrip(t, p, b.Rows, 1e-9)
}

func TestSSORRoundTrip(t *testing.T) {
	b := block(t)
	for _, omega := range []float64{0.8, 1.0, 1.4} {
		p, err := NewSSOR(b, omega)
		if err != nil {
			t.Fatal(err)
		}
		testRoundTrip(t, p, b.Rows, 1e-9)
	}
}

func TestSSORValidation(t *testing.T) {
	b := block(t)
	if _, err := NewSSOR(b, 0); err == nil {
		t.Fatal("omega=0 must fail")
	}
	if _, err := NewSSOR(b, 2); err == nil {
		t.Fatal("omega=2 must fail")
	}
	rect := sparse.FromDense(1, 2, []float64{1, 1})
	if _, err := NewSSOR(rect, 1); err == nil {
		t.Fatal("rectangular must fail")
	}
}

func TestSSORMatchesDenseDefinition(t *testing.T) {
	// Verify ApplyM against the dense formula
	// M = 1/(w(2-w)) (D+wL) D^{-1} (D+wL)^T on a small block.
	b := matgen.Poisson2D(3, 3)
	n := b.Rows
	omega := 1.2
	p, err := NewSSOR(b, omega)
	if err != nil {
		t.Fatal(err)
	}
	d := b.ToDense()
	T := make([]float64, n*n)  // D + wL
	Tt := make([]float64, n*n) // (D + wL)^T
	diag := make([]float64, n)
	for i := 0; i < n; i++ {
		diag[i] = d[i*n+i]
		T[i*n+i] = d[i*n+i]
		Tt[i*n+i] = d[i*n+i]
		for j := 0; j < i; j++ {
			T[i*n+j] = omega * d[i*n+j]
			Tt[j*n+i] = omega * d[i*n+j]
		}
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i+1) * 0.3
	}
	// dense M x
	tmp := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			tmp[i] += Tt[i*n+j] * x[j]
		}
	}
	for i := range tmp {
		tmp[i] /= diag[i]
	}
	want := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want[i] += T[i*n+j] * tmp[j]
		}
	}
	c := 1 / (omega * (2 - omega))
	for i := range want {
		want[i] *= c
	}
	got := make([]float64, n)
	p.ApplyM(got, x)
	if d := vec.MaxAbsDiff(got, want); d > 1e-10 {
		t.Fatalf("SSOR ApplyM differs from dense formula by %g", d)
	}
}

func TestIC0SplitRoundTrips(t *testing.T) {
	b := block(t)
	s, err := NewIC0Split(b)
	if err != nil {
		t.Fatal(err)
	}
	testRoundTrip(t, s, b.Rows, 1e-9)
	// Split pieces compose: ApplyInv == SolveLT(SolveL(.)).
	rng := rand.New(rand.NewSource(4))
	r := make([]float64, b.Rows)
	for i := range r {
		r[i] = rng.NormFloat64()
	}
	z1 := make([]float64, b.Rows)
	s.ApplyInv(z1, r)
	y := make([]float64, b.Rows)
	z2 := make([]float64, b.Rows)
	s.SolveL(y, r)
	s.SolveLT(z2, y)
	if d := vec.MaxAbsDiff(z1, z2); d > 1e-12 {
		t.Fatalf("split composition differs by %g", d)
	}
	// MulL/MulLT invert SolveL/SolveLT.
	s.MulL(y, r)
	s.SolveL(z2, y)
	if d := vec.MaxAbsDiff(z2, r); d > 1e-9 {
		t.Fatalf("MulL/SolveL round trip %g", d)
	}
	s.MulLT(y, r)
	s.SolveLT(z2, y)
	if d := vec.MaxAbsDiff(z2, r); d > 1e-9 {
		t.Fatalf("MulLT/SolveLT round trip %g", d)
	}
}

// Preconditioned residual z = M^{-1} r must define a positive inner product
// with r (M SPD), a requirement for PCG convergence.
func TestPositiveDefinitenessOfApplyInv(t *testing.T) {
	b := block(t)
	precs := []Preconditioner{Identity{}}
	if j, err := NewJacobi(b.Diag()); err == nil {
		precs = append(precs, j)
	}
	if p, err := NewBlockJacobiChol(b); err == nil {
		precs = append(precs, p)
	}
	if p, err := NewSSOR(b, 1.3); err == nil {
		precs = append(precs, p)
	}
	if p, err := NewIC0Split(b); err == nil {
		precs = append(precs, p)
	}
	rng := rand.New(rand.NewSource(8))
	for _, p := range precs {
		for trial := 0; trial < 10; trial++ {
			r := make([]float64, b.Rows)
			for i := range r {
				r[i] = rng.NormFloat64()
			}
			z := make([]float64, b.Rows)
			p.ApplyInv(z, r)
			if vec.Dot(z, r) <= 0 {
				t.Fatalf("%s: z'r <= 0", p.Name())
			}
		}
	}
}

// TestBatchApplierBitwise pins the fused multi-column contract for every
// preconditioner that offers one: column c of ApplyInvK must be bitwise
// identical to a solo ApplyInv on the same pair.
func TestBatchApplierBitwise(t *testing.T) {
	blk := matgen.Poisson2D(9, 7)
	jac, err := NewJacobi(blk.Diag())
	if err != nil {
		t.Fatal(err)
	}
	ilu, err := NewBlockJacobiILU(blk)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for _, p := range []Preconditioner{Identity{}, jac, ilu} {
		ba, ok := p.(BatchApplier)
		if !ok {
			t.Fatalf("%s lost its BatchApplier", p.Name())
		}
		const k = 6
		r := make([][]float64, k)
		zFused := make([][]float64, k)
		zSolo := make([][]float64, k)
		for c := range r {
			r[c] = make([]float64, blk.Rows)
			for i := range r[c] {
				r[c][i] = rng.NormFloat64()
			}
			zFused[c] = make([]float64, blk.Rows)
			zSolo[c] = make([]float64, blk.Rows)
		}
		ba.ApplyInvK(zFused, r, make([]float64, k*blk.Rows))
		for c := range r {
			p.ApplyInv(zSolo[c], r[c])
			for i := range zSolo[c] {
				if zFused[c][i] != zSolo[c][i] {
					t.Fatalf("%s column %d: ApplyInvK[%d] = %x, ApplyInv = %x",
						p.Name(), c, i, zFused[c][i], zSolo[c][i])
				}
			}
		}
	}
}
