package sparse

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// small dense reference helpers
func denseMulVec(r, c int, d, x []float64) []float64 {
	y := make([]float64, r)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			y[i] += d[i*c+j] * x[j]
		}
	}
	return y
}

func randDense(rng *rand.Rand, r, c int, density float64) []float64 {
	d := make([]float64, r*c)
	for i := range d {
		if rng.Float64() < density {
			d[i] = rng.NormFloat64()
		}
	}
	return d
}

func TestCOOToCSRBasic(t *testing.T) {
	a := NewCOO(3, 3)
	a.Add(0, 0, 1)
	a.Add(2, 1, 5)
	a.Add(0, 2, 3)
	a.Add(1, 1, 4)
	m := a.ToCSR()
	if err := m.CheckValid(); err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 4 {
		t.Fatalf("NNZ = %d, want 4", m.NNZ())
	}
	if m.At(0, 2) != 3 || m.At(2, 1) != 5 || m.At(1, 0) != 0 {
		t.Fatal("At values wrong")
	}
}

func TestCOODuplicatesSummed(t *testing.T) {
	a := NewCOO(2, 2)
	a.Add(0, 1, 2)
	a.Add(0, 1, 3)
	m := a.ToCSR()
	if m.NNZ() != 1 || m.At(0, 1) != 5 {
		t.Fatalf("duplicates not summed: nnz=%d at=%v", m.NNZ(), m.At(0, 1))
	}
}

func TestAddSym(t *testing.T) {
	a := NewCOO(3, 3)
	a.AddSym(0, 1, 2)
	a.AddSym(2, 2, 7)
	m := a.ToCSR()
	if m.At(0, 1) != 2 || m.At(1, 0) != 2 || m.At(2, 2) != 7 || m.NNZ() != 3 {
		t.Fatal("AddSym wrong")
	}
}

func TestMulVecAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		r := 1 + rng.Intn(20)
		c := 1 + rng.Intn(20)
		d := randDense(rng, r, c, 0.3)
		m := FromDense(r, c, d)
		if err := m.CheckValid(); err != nil {
			t.Fatal(err)
		}
		x := make([]float64, c)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y := make([]float64, r)
		m.MulVec(y, x)
		want := denseMulVec(r, c, d, x)
		for i := range y {
			if math.Abs(y[i]-want[i]) > 1e-12 {
				t.Fatalf("trial %d: y[%d]=%v want %v", trial, i, y[i], want[i])
			}
		}
		// MulVecAdd doubles the result.
		m.MulVecAdd(y, x)
		for i := range y {
			if math.Abs(y[i]-2*want[i]) > 1e-12 {
				t.Fatalf("MulVecAdd wrong at %d", i)
			}
		}
	}
}

func TestTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := randDense(rng, 7, 5, 0.4)
	m := FromDense(7, 5, d)
	tr := m.Transpose()
	if err := tr.CheckValid(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		for j := 0; j < 5; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(15), 1+rng.Intn(15)
		m := FromDense(r, c, randDense(rng, r, c, 0.3))
		tt := m.Transpose().Transpose()
		if tt.Rows != m.Rows || tt.Cols != m.Cols || tt.NNZ() != m.NNZ() {
			return false
		}
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				if m.At(i, j) != tt.At(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDiag(t *testing.T) {
	m := FromDense(3, 3, []float64{
		2, 1, 0,
		1, 3, 0,
		0, 0, 0,
	})
	d := m.Diag()
	if d[0] != 2 || d[1] != 3 || d[2] != 0 {
		t.Fatalf("Diag = %v", d)
	}
}

func TestIsSymmetric(t *testing.T) {
	sym := FromDense(2, 2, []float64{1, 2, 2, 5})
	if !sym.IsSymmetric(0) {
		t.Fatal("symmetric matrix reported asymmetric")
	}
	asym := FromDense(2, 2, []float64{1, 2, 3, 5})
	if asym.IsSymmetric(1e-12) {
		t.Fatal("asymmetric matrix reported symmetric")
	}
	rect := FromDense(1, 2, []float64{1, 2})
	if rect.IsSymmetric(1) {
		t.Fatal("rectangular matrix cannot be symmetric")
	}
}

func TestBandwidth(t *testing.T) {
	m := FromDense(4, 4, []float64{
		1, 1, 0, 0,
		1, 1, 0, 0,
		0, 0, 1, 0,
		1, 0, 0, 1, // entry (3,0): bandwidth 3
	})
	if bw := m.Bandwidth(); bw != 3 {
		t.Fatalf("Bandwidth = %d, want 3", bw)
	}
	if bw := Identity(5).Bandwidth(); bw != 0 {
		t.Fatalf("Identity bandwidth = %d, want 0", bw)
	}
}

func TestPermuteRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 30
	d := randDense(rng, n, n, 0.3)
	// Symmetrise so Permute's SPD contract is honoured.
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			d[i*n+j] = d[j*n+i]
		}
	}
	m := FromDense(n, n, d)
	perm := rng.Perm(n)
	pm := m.Permute(perm)
	// P A P^T entries: pm[newI, newJ] == m[perm[newI], perm[newJ]].
	for newI := 0; newI < n; newI++ {
		for newJ := 0; newJ < n; newJ++ {
			if pm.At(newI, newJ) != m.At(perm[newI], perm[newJ]) {
				t.Fatalf("permute mismatch at (%d,%d)", newI, newJ)
			}
		}
	}
	// The inverse permutation restores A.
	inv := make([]int, n)
	for newI, oldI := range perm {
		inv[oldI] = newI
	}
	if back := pm.Permute(inv); !slices.Equal(back.ToDense(), m.ToDense()) {
		t.Fatal("permuting by the inverse does not restore the matrix")
	}
}

func TestRowBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := randDense(rng, 9, 6, 0.4)
	m := FromDense(9, 6, d)
	b := m.RowBlock(3, 7)
	if err := b.CheckValid(); err != nil {
		t.Fatal(err)
	}
	if b.Rows != 4 || b.Cols != 6 {
		t.Fatalf("RowBlock dims %dx%d", b.Rows, b.Cols)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 6; j++ {
			if b.At(i, j) != m.At(i+3, j) {
				t.Fatalf("RowBlock mismatch at (%d,%d)", i, j)
			}
		}
	}
}

// TestRowBlockIsAView: every window of a matrix — and every window of such a
// view — equals the deep copy RowBlock used to make, field for field, while
// its Col and Val alias the parent's storage, capacity-clipped so an append
// to the view cannot overwrite the parent's next row.
func TestRowBlockIsAView(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m := FromDense(9, 7, randDense(rng, 9, 7, 0.4))
	copyBlock := func(m *CSR, lo, hi int) *CSR {
		s, e := m.RowPtr[lo], m.RowPtr[hi]
		b := &CSR{Rows: hi - lo, Cols: m.Cols, RowPtr: make([]int, hi-lo+1),
			Col: append([]int(nil), m.Col[s:e]...), Val: append([]float64(nil), m.Val[s:e]...)}
		for i := lo; i <= hi; i++ {
			b.RowPtr[i-lo] = m.RowPtr[i] - s
		}
		return b
	}
	same := func(a, b *CSR) bool {
		return a.Rows == b.Rows && a.Cols == b.Cols && slices.Equal(a.RowPtr, b.RowPtr) && slices.Equal(a.Col, b.Col) &&
			slices.EqualFunc(a.Val, b.Val, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	for lo := 0; lo <= m.Rows; lo++ {
		for hi := lo; hi <= m.Rows; hi++ {
			v := m.RowBlock(lo, hi)
			if !same(v, copyBlock(m, lo, hi)) {
				t.Fatalf("RowBlock(%d, %d) differs from the copied block", lo, hi)
			}
			if s, e := m.RowPtr[lo], m.RowPtr[hi]; e > s {
				if &v.Col[0] != &m.Col[s] || &v.Val[0] != &m.Val[s] {
					t.Fatalf("RowBlock(%d, %d) copies its rows instead of aliasing them", lo, hi)
				}
			}
			if cap(v.Col) != len(v.Col) || cap(v.Val) != len(v.Val) {
				t.Fatalf("RowBlock(%d, %d) leaves capacity %d/%d past its %d entries", lo, hi, cap(v.Col), cap(v.Val), len(v.Col))
			}
			for a := 0; a <= v.Rows; a++ {
				for b := a; b <= v.Rows; b++ {
					if !same(v.RowBlock(a, b), copyBlock(m, lo+a, lo+b)) {
						t.Fatalf("RowBlock(%d, %d) of RowBlock(%d, %d) differs from the copied block", a, b, lo, hi)
					}
				}
			}
		}
	}
	if n := testing.AllocsPerRun(20, func() { rowBlockSink = m.RowBlock(2, 7) }); n > 2 {
		t.Fatalf("RowBlock makes %.0f allocations, want the header and its RowPtr only", n)
	}
}

// rowBlockSink keeps the view TestRowBlockIsAView counts allocations of on
// the heap, as a caller holding it would.
var rowBlockSink *CSR

func TestSubmatrix(t *testing.T) {
	d := []float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}
	m := FromDense(4, 4, d)
	sub := m.Submatrix([]int{1, 3}, []int{0, 2})
	if err := sub.CheckValid(); err != nil {
		t.Fatal(err)
	}
	if sub.Rows != 2 || sub.Cols != 2 {
		t.Fatalf("Submatrix dims %dx%d", sub.Rows, sub.Cols)
	}
	want := [][]float64{{5, 7}, {13, 15}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if sub.At(i, j) != want[i][j] {
				t.Fatalf("Submatrix(%d,%d) = %v want %v", i, j, sub.At(i, j), want[i][j])
			}
		}
	}
}

func TestToDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	d := randDense(rng, 6, 6, 0.5)
	m := FromDense(6, 6, d)
	got := m.ToDense()
	for i := range d {
		if d[i] != got[i] {
			t.Fatalf("ToDense mismatch at %d", i)
		}
	}
}

func TestIdentity(t *testing.T) {
	m := Identity(4)
	if err := m.CheckValid(); err != nil {
		t.Fatal(err)
	}
	x := []float64{1, 2, 3, 4}
	y := make([]float64, 4)
	m.MulVec(y, x)
	for i := range x {
		if y[i] != x[i] {
			t.Fatal("identity MulVec wrong")
		}
	}
}

func TestCheckValidDetectsCorruption(t *testing.T) {
	m := Identity(3)
	m.Col[1] = 5 // out of range
	if err := m.CheckValid(); err == nil {
		t.Fatal("CheckValid missed out-of-range column")
	}
	m = Identity(3)
	m.RowPtr[1] = 3 // non-monotone later
	if err := m.CheckValid(); err == nil {
		t.Fatal("CheckValid missed bad RowPtr")
	}
}

func TestClone(t *testing.T) {
	m := Identity(3)
	c := m.Clone()
	c.Val[0] = 42
	if m.Val[0] != 1 {
		t.Fatal("Clone aliases storage")
	}
}

func TestSubmatrixEqualsDenseSelection(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		d := randDense(rng, n, n, 0.4)
		m := FromDense(n, n, d)
		// random sorted subset
		var rows, cols []int
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.5 {
				rows = append(rows, i)
			}
			if rng.Float64() < 0.5 {
				cols = append(cols, i)
			}
		}
		sub := m.Submatrix(rows, cols)
		for ri, i := range rows {
			for cj, j := range cols {
				if sub.At(ri, cj) != d[i*n+j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSpMVBanded(b *testing.B) {
	n := 100000
	a := NewCOO(n, n)
	for i := 0; i < n; i++ {
		a.Add(i, i, 4)
		if i > 0 {
			a.Add(i, i-1, -1)
		}
		if i < n-1 {
			a.Add(i, i+1, -1)
		}
	}
	m := a.ToCSR()
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(i%13) * 0.1
	}
	b.SetBytes(int64(m.NNZ() * 12))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVec(y, x)
	}
}
