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

// TestQuickAxpyAxpyMatchesTwoCalls: the fused PCG update pair must be
// bit-identical to the two-call reference for random inputs, including the
// aliased-scalars case the solver uses (b = -a).
func TestQuickAxpyAxpyMatchesTwoCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(2000)
		a := rng.NormFloat64()
		b := -a
		if trial%3 == 0 {
			b = rng.NormFloat64()
		}
		p := make([]float64, n)
		q := make([]float64, n)
		x := make([]float64, n)
		r := make([]float64, n)
		for i := 0; i < n; i++ {
			p[i], q[i] = rng.NormFloat64(), rng.NormFloat64()
			x[i], r[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		xRef := append([]float64(nil), x...)
		rRef := append([]float64(nil), r...)
		Axpy(a, p, xRef)
		Axpy(b, q, rRef)
		AxpyAxpy(a, p, x, b, q, r)
		for i := 0; i < n; i++ {
			if x[i] != xRef[i] || r[i] != rRef[i] {
				t.Fatalf("trial %d: fused update differs at %d: x %v vs %v, r %v vs %v",
					trial, i, x[i], xRef[i], r[i], rRef[i])
			}
		}
	}
}

func TestQuickAxpyAxpyPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	AxpyAxpy(1, []float64{1, 2}, []float64{1, 2}, 1, []float64{1}, []float64{1})
}

// TestReductionGrid pins the reduction grid: Dot, Dot2 and Nrm2Sq must each
// equal the in-order sum of their partials over ceil(n/2^13) chunks (one
// below 2^15), bit for bit, around the threshold and with a short last
// chunk, on data with -0, subnormals, subnormal products and, one kind per
// case, ±Inf, NaN and Inf - Inf, with Dot2 paired as the driver pairs it. A
// seeded 2^16-element Dot must also give the bits the pooled ParDot gave,
// which the ledger's problems are too small to check.
func TestReductionGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	inf := math.Inf(1)
	specials := [][]float64{nil, {inf}, {-inf}, {math.NaN()}, {inf, -inf}}
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
			x[rng.Intn(n)] = s
		}
		return x
	}
	// gridSum is the grid's reduction spelled out: one chunk below 2^15
	// elements, else ceil(n/2^13), the first n%nc one element longer; one
	// accumulator each, the partials added in index order.
	gridSum := func(x, y []float64) float64 {
		n, nc := len(x), 1
		if n >= 1<<15 {
			nc = (n + 1<<13 - 1) >> 13
		}
		var s float64
		for c := 0; c < nc; c++ {
			lo := c*(n/nc) + min(c, n%nc)
			hi := lo + n/nc
			if c < n%nc {
				hi++
			}
			var p float64
			for i := lo; i < hi; i++ {
				p += x[i] * y[i]
			}
			s += p
		}
		return s
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, n := range []int{1<<15 - 1, 1 << 15, 1 << 16, 1<<16 + 1<<13 + 3} {
		for _, sp := range specials {
			x, y, u, v := fill(n, sp), fill(n, nil), fill(n, sp), fill(n, nil)
			if got, want := Dot(x, y), gridSum(x, y); !same(got, want) {
				t.Fatalf("n=%d %v: Dot = %x, grid sum %x", n, sp, got, want)
			}
			if got, want := Nrm2Sq(x), gridSum(x, x); !same(got, want) {
				t.Fatalf("n=%d %v: Nrm2Sq = %x, grid sum %x", n, sp, got, want)
			}
			if rr, rz := Dot2(x, x, x, y); !same(rr, Nrm2Sq(x)) || !same(rz, Dot(x, y)) {
				t.Fatalf("n=%d %v: Dot2(r, r, r, z) = (%x, %x), Nrm2Sq %x, Dot %x",
					n, sp, rr, rz, Nrm2Sq(x), Dot(x, y))
			}
			if a, b := Dot2(x, y, u, v); !same(a, Dot(x, y)) || !same(b, Dot(u, v)) {
				t.Fatalf("n=%d %v: Dot2(p0, u0, p1, u1) = (%x, %x), Dot %x, %x",
					n, sp, a, b, Dot(x, y), Dot(u, v))
			}
		}
	}

	golden := rand.New(rand.NewSource(2019))
	x, y := make([]float64, 1<<16), make([]float64, 1<<16)
	for i := range x {
		x[i], y[i] = golden.NormFloat64(), golden.NormFloat64()
	}
	if got := math.Float64bits(Dot(x, y)); got != 0xc02fee6a5c4855a0 {
		t.Fatalf("seeded 2^16 Dot = %#016x, the pooled ParDot gave 0xc02fee6a5c4855a0", got)
	}
}

// TestParDotMatchesDot: the grid sum that took ParDot's place in Dot stays
// within rounding of the plain single-accumulator sum, below, at and above
// the grid threshold.
func TestParDotMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 100, gridMin, gridMin + 1, 3*gridMin + 17} {
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		var seq float64
		for i := range x {
			seq += x[i] * y[i]
		}
		if got := Dot(x, y); !almostEq(seq, got, 1e-12) {
			t.Fatalf("n=%d: Dot %v vs single-accumulator sum %v", n, got, seq)
		}
	}
}

// TestParDot2BitwiseParDot: each half of the fused pair Dot2 is
// bit-identical to Dot of its own vectors, from the empty vector up past the
// grid threshold (a partial last chunk included), as the driver pairs them —
// (r, r) with (r, z), and the p'Ap of two columns — on data with -0,
// subnormals, subnormal products and, one kind per case, +Inf, -Inf, NaN and
// Inf - Inf.
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
	for _, n := range []int{0, 1, gridMin - 1, gridMin, gridMin + gridChunk + 3} {
		for _, sp := range specials {
			name := sp.name
			x, y, u, v := fill(n, sp.values), fill(n, nil), fill(n, sp.values), fill(n, nil)
			if rr, rz := Dot2(x, x, x, y); !same(rr, Nrm2Sq(x)) || !same(rz, Dot(x, y)) {
				t.Fatalf("n=%d %s: Dot2(r, r, r, z) = (%x, %x), Nrm2Sq %x, Dot %x",
					n, name, rr, rz, Nrm2Sq(x), Dot(x, y))
			}
			if a, b := Dot2(x, y, u, v); !same(a, Dot(x, y)) || !same(b, Dot(u, v)) {
				t.Fatalf("n=%d %s: Dot2(p0, u0, p1, u1) = (%x, %x), Dot %x, %x",
					n, name, a, b, Dot(x, y), Dot(u, v))
			}
		}
	}
}

// TestQuickParDotThreadInvariant: a reduction's bits depend on its input
// alone. The forwards that still take a thread argument return Dot's and
// Nrm2Sq's bits for every setting, and the sequential sum over grid(n)'s
// chunks, partials added in index order, is Dot's sum.
func TestQuickParDotThreadInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := gridMin + 12345
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	ref, refSq := Dot(x, y), Nrm2Sq(x)
	for _, threads := range []int{0, 1, 2, 3, 8, 64} {
		if got := ParDotN(x, y, threads); got != ref {
			t.Fatalf("threads=%d: ParDotN = %x, Dot gave %x", threads, got, ref)
		}
		if got := ParNrm2SqN(x, threads); got != refSq {
			t.Fatalf("threads=%d: ParNrm2SqN = %x, Nrm2Sq gave %x", threads, got, refSq)
		}
	}
	var seq float64
	for lo, hi := range grid(n) {
		var p float64
		for i := lo; i < hi; i++ {
			p += x[i] * y[i]
		}
		seq += p
	}
	if seq != ref {
		t.Fatalf("chunked sequential sum %x != Dot %x", seq, ref)
	}
}

// TestQuickParallelCoversOnce: grid(n) visits every index of [0, n) exactly
// once, in index order, as one range below gridMin and otherwise as
// ceil(n/gridChunk) chunks whose lengths differ by at most one — the
// disjoint-cover contract the reductions' bits rest on. A loop that breaks
// out of the range stops the iterator.
func TestQuickParallelCoversOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, gridMin - 1, gridMin, gridMin + 1, 100_000, 1<<16 + 1<<13 + 3} {
		visits := make([]int32, n)
		want, next, chunks := 1, 0, 0
		if n >= gridMin {
			want = (n + gridChunk - 1) / gridChunk
		}
		minLen, maxLen := n, 0
		for lo, hi := range grid(n) {
			if lo != next || hi < lo {
				t.Fatalf("n=%d: chunk %d is [%d, %d), want it to start at %d", n, chunks, lo, hi, next)
			}
			for i := lo; i < hi; i++ {
				visits[i]++
			}
			minLen, maxLen = min(minLen, hi-lo), max(maxLen, hi-lo)
			next = hi
			chunks++
		}
		if chunks != want {
			t.Fatalf("n=%d: %d chunks, want %d", n, chunks, want)
		}
		if chunks > 1 && maxLen-minLen > 1 {
			t.Fatalf("n=%d: chunk lengths run from %d to %d", n, minLen, maxLen)
		}
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, v)
			}
		}
	}
	seen := 0
	for range grid(1 << 16) {
		seen++
		if seen == 3 {
			break
		}
	}
	if seen != 3 {
		t.Fatalf("breaking after 3 chunks saw %d", seen)
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
