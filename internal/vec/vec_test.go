package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestDot(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, -5, 6}
	if got := Dot(x, y); got != 1*4-2*5+3*6 {
		t.Fatalf("Dot = %v, want 12", got)
	}
}

func TestDotEmpty(t *testing.T) {
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil,nil) = %v, want 0", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestAxpy(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{10, 20, 30}
	Axpy(2, x, y)
	want := []float64{12, 24, 36}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Axpy[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestAxpby(t *testing.T) {
	x := []float64{1, 2}
	y := []float64{3, 4}
	Axpby(2, x, 3, y)
	if y[0] != 11 || y[1] != 16 {
		t.Fatalf("Axpby = %v", y)
	}
}

func TestXpayInto(t *testing.T) {
	dst := make([]float64, 2)
	XpayInto(dst, []float64{1, 2}, 3, []float64{10, 20})
	if dst[0] != 31 || dst[1] != 62 {
		t.Fatalf("XpayInto = %v", dst)
	}
}

func TestNrm2(t *testing.T) {
	if got := Nrm2([]float64{3, 4}); !almostEq(got, 5, 1e-15) {
		t.Fatalf("Nrm2 = %v, want 5", got)
	}
	if got := Nrm2(nil); got != 0 {
		t.Fatalf("Nrm2(nil) = %v, want 0", got)
	}
}

func TestNrm2OverflowGuard(t *testing.T) {
	big := math.MaxFloat64 / 2
	got := Nrm2([]float64{big, big})
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("Nrm2 overflowed: %v", got)
	}
	want := big * math.Sqrt2
	if math.Abs(got-want)/want > 1e-14 {
		t.Fatalf("Nrm2 = %v, want %v", got, want)
	}
}

func TestNrm2MatchesNrm2Sq(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 1000)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	a := Nrm2(x)
	b := math.Sqrt(Nrm2Sq(x))
	if !almostEq(a, b, 1e-13) {
		t.Fatalf("Nrm2 %v vs sqrt(Nrm2Sq) %v", a, b)
	}
}

func TestNrmInf(t *testing.T) {
	if got := NrmInf([]float64{1, -7, 3}); got != 7 {
		t.Fatalf("NrmInf = %v, want 7", got)
	}
}

func TestSubAdd(t *testing.T) {
	x := []float64{5, 7}
	y := []float64{2, 3}
	d := make([]float64, 2)
	Sub(d, x, y)
	if d[0] != 3 || d[1] != 4 {
		t.Fatalf("Sub = %v", d)
	}
	Add(d, x, y)
	if d[0] != 7 || d[1] != 10 {
		t.Fatalf("Add = %v", d)
	}
}

func TestCloneCopyZeroFill(t *testing.T) {
	x := []float64{1, 2, 3}
	c := Clone(x)
	c[0] = 99
	if x[0] != 1 {
		t.Fatal("Clone aliases input")
	}
	Copy(c, x)
	if c[0] != 1 {
		t.Fatal("Copy failed")
	}
	Zero(c)
	if c[2] != 0 {
		t.Fatal("Zero failed")
	}
	Fill(c, 7)
	if c[1] != 7 {
		t.Fatal("Fill failed")
	}
}

func TestMaxAbsDiff(t *testing.T) {
	if got := MaxAbsDiff([]float64{1, 2}, []float64{1.5, 1}); got != 1 {
		t.Fatalf("MaxAbsDiff = %v, want 1", got)
	}
}

// Property: Dot is symmetric and linear in its first argument.
func TestDotPropertiesQuick(t *testing.T) {
	f := func(raw []float64, a float64) bool {
		if len(raw) < 2 {
			return true
		}
		// Clamp to avoid inf arithmetic in the property itself.
		x := make([]float64, len(raw)/2)
		y := make([]float64, len(raw)/2)
		for i := range x {
			x[i] = math.Mod(raw[2*i], 1e3)
			y[i] = math.Mod(raw[2*i+1], 1e3)
			if math.IsNaN(x[i]) {
				x[i] = 0
			}
			if math.IsNaN(y[i]) {
				y[i] = 0
			}
		}
		a = math.Mod(a, 1e3)
		if math.IsNaN(a) {
			a = 0
		}
		if Dot(x, y) != Dot(y, x) {
			return false
		}
		ax := make([]float64, len(x))
		for i := range x {
			ax[i] = a * x[i]
		}
		return almostEq(Dot(ax, y), a*Dot(x, y), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestParDotMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 100, parThreshold, parThreshold + 1, 3*parThreshold + 17} {
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		seq := Dot(x, y)
		par := ParDot(x, y)
		if !almostEq(seq, par, 1e-12) {
			t.Fatalf("n=%d: ParDot %v vs Dot %v", n, par, seq)
		}
	}
}

// TestParDot2BitwiseParDot: each half of the fused pair is bit-identical to
// ParDot of its own vectors, below and above parThreshold (a partial last
// chunk included), as the driver pairs them — (r, r) with (r, z), and the
// p'Ap of two columns — on data with -0, subnormals, subnormal products and,
// one kind per case, +Inf, -Inf, NaN and Inf - Inf.
func TestParDot2BitwiseParDot(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	specials := []struct {
		name   string
		values []float64
	}{
		{"finite", nil},
		{"+inf", []float64{math.Inf(1)}},
		{"-inf", []float64{math.Inf(-1)}},
		{"nan", []float64{math.NaN()}},
		{"inf-inf", []float64{math.Inf(1), math.Inf(-1)}},
	}
	fill := func(n int, special []float64) []float64 {
		x := make([]float64, n)
		for i := range x {
			switch rng.Intn(8) {
			case 0:
				x[i] = math.Copysign(0, -1)
			case 1:
				x[i] = math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1000))
			case 2:
				x[i] = 1e-160 * rng.NormFloat64() // products are subnormal
			default:
				x[i] = rng.NormFloat64()
			}
		}
		for _, s := range special {
			if n > 0 {
				x[rng.Intn(n)] = s
			}
		}
		return x
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, n := range []int{0, 1, parThreshold - 1, parThreshold, parThreshold + parChunk + 3} {
		for _, sp := range specials {
			name := sp.name
			x, y, u, v := fill(n, sp.values), fill(n, nil), fill(n, sp.values), fill(n, nil)
			if rr, rz := ParDot2(x, x, x, y); !same(rr, ParNrm2Sq(x)) || !same(rz, ParDot(x, y)) {
				t.Fatalf("n=%d %s: ParDot2(r, r, r, z) = (%x, %x), ParNrm2Sq %x, ParDot %x",
					n, name, rr, rz, ParNrm2Sq(x), ParDot(x, y))
			}
			if a, b := ParDot2(x, y, u, v); !same(a, ParDot(x, y)) || !same(b, ParDot(u, v)) {
				t.Fatalf("n=%d %s: ParDot2(p0, u0, p1, u1) = (%x, %x), ParDot %x, %x",
					n, name, a, b, ParDot(x, y), ParDot(u, v))
			}
		}
	}
}

func TestParAxpyAxpyMatchesAxpyAxpy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 2*parThreshold + 13
	x, y1, u, v1 := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range x {
		x[i], y1[i], u[i], v1[i] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
	}
	y2, v2 := Clone(y1), Clone(v1)
	AxpyAxpy(1.5, x, y1, -0.5, u, v1)
	ParAxpyAxpy(1.5, x, y2, -0.5, u, v2, 0)
	if MaxAbsDiff(y1, y2) != 0 || MaxAbsDiff(v1, v2) != 0 {
		t.Fatal("ParAxpyAxpy differs from AxpyAxpy")
	}
}

func BenchmarkDot(b *testing.B) {
	n := 1 << 16
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(i % 7)
		y[i] = float64(i % 5)
	}
	b.SetBytes(int64(16 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Dot(x, y)
	}
}

func BenchmarkParDot(b *testing.B) {
	n := 1 << 20
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(i % 7)
		y[i] = float64(i % 5)
	}
	b.SetBytes(int64(16 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ParDot(x, y)
	}
}
