package vec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// defaultNaN is the NaN x86 produces itself, from 0·Inf or Inf-Inf. When
// two NaNs meet, the hardware returns the first operand's, and the Go
// compiler orders an operation's operands per site, so NaNs with different
// payloads would make even two Go kernels disagree in the payload: every NaN
// the kernel tests inject is this one, and so is every NaN a kernel forms.
var defaultNaN = math.Float64frombits(0xfff8000000000000)

// specialValue draws a value for the kernel tests: mostly normal, else one
// of ±0, ±Inf, NaN, a subnormal or a value whose products overflow.
func specialValue(rng *rand.Rand) float64 {
	switch rng.Intn(10) {
	case 0:
		return []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), defaultNaN, 5e-324, -5e-324, 1e308, -1e308}[rng.Intn(9)]
	case 1:
		return rng.NormFloat64() * 1e-310 // subnormal
	default:
		return rng.NormFloat64()
	}
}

func specialVector(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = specialValue(rng)
	}
	return x
}

// kernelLengths are the vector lengths the kernel oracles run: every length
// 0…67 (each pass width and tail), then the workloads' rank blocks (Poisson
// 64² and elasticity 14³ and the circuit on 8 ranks).
func kernelLengths() []int {
	var ns []int
	for n := 0; n <= 67; n++ {
		ns = append(ns, n)
	}
	return append(ns, 512, 1029, 1500)
}

func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestUpdatesSIMDMatchesGo holds AxpyAxpy and Axpby to their Go kernels bit
// for bit, at every length 0…67 and at the workload block sizes, with ±0,
// ±Inf, NaN and subnormal values in the vectors and the scalars, and with
// AxpyAxpy's slices separate or one and the same.
func TestUpdatesSIMDMatchesGo(t *testing.T) {
	if axpyAxpyLanes == nil || axpbyLanes == nil {
		t.Skip("no SIMD updates on this platform and build")
	}
	rng := rand.New(rand.NewSource(45))
	clone := func(vs ...[]float64) [][]float64 {
		out := make([][]float64, len(vs))
		for i, v := range vs {
			out[i] = append([]float64(nil), v...)
		}
		return out
	}
	// aliases names which of AxpyAxpy's slices x, y, u, v are the same one:
	// entry i is the index of the slice argument i reads.
	aliases := [][4]int{{0, 1, 2, 3}, {0, 0, 0, 0}, {0, 1, 2, 1}, {0, 1, 0, 3}, {0, 1, 1, 3}, {0, 1, 2, 0}}
	for _, n := range kernelLengths() {
		for trial := 0; trial < 3; trial++ {
			a, b := specialValue(rng), specialValue(rng)
			if trial == 0 {
				a, b = rng.NormFloat64(), rng.NormFloat64()
			}
			vs := [][]float64{specialVector(rng, n), specialVector(rng, n), specialVector(rng, n), specialVector(rng, n)}
			for _, al := range aliases {
				want, got := clone(vs...), clone(vs...)
				axpyAxpyGo(a, want[al[0]], want[al[1]], b, want[al[2]], want[al[3]])
				AxpyAxpy(a, got[al[0]], got[al[1]], b, got[al[2]], got[al[3]])
				for s := range want {
					if i := sameBits(got[s], want[s]); i >= 0 {
						t.Fatalf("n=%d aliases %v a=%v b=%v: AxpyAxpy slice %d index %d: SIMD %#x, Go %#x",
							n, al, a, b, s, i, math.Float64bits(got[s][i]), math.Float64bits(want[s][i]))
					}
				}
			}
			want, got := clone(vs[1]), clone(vs[1])
			axpbyGo(a, vs[0], b, want[0])
			Axpby(a, vs[0], b, got[0])
			if i := sameBits(got[0], want[0]); i >= 0 {
				t.Fatalf("n=%d a=%v b=%v: Axpby index %d: SIMD %#x, Go %#x", n, a, b, i, math.Float64bits(got[0][i]), math.Float64bits(want[0][i]))
			}
		}
	}
}

// TestReduceKSIMDMatchesGo holds DotK and Dot2K to Dot and Dot2 on each
// column, bit for bit: every width 1…40 at every length 0…67, the workload
// block sizes at widths around the kernel's pairings, and lengths 2^15 ± 1 on
// either side of the grid (below it the SIMD kernel runs, from it the grid
// sum), with ±0, ±Inf, NaN and subnormal values. Dot2K also runs with its
// operands aliased the way the driver passes them, (r, r, r, z).
func TestReduceKSIMDMatchesGo(t *testing.T) {
	if dot2KLanes == nil {
		t.Log("no SIMD reductions on this platform and build: checking the Go column loops")
	}
	rng := rand.New(rand.NewSource(46))
	check := func(n, k int) {
		x, y, u, v := make([][]float64, k), make([][]float64, k), make([][]float64, k), make([][]float64, k)
		for c := range x {
			x[c], y[c], u[c], v[c] = specialVector(rng, n), specialVector(rng, n), specialVector(rng, n), specialVector(rng, n)
		}
		s, t2 := make([]float64, k), make([]float64, k)
		DotK(s, x, y)
		for c := range s {
			if w := Dot(x[c], y[c]); math.Float64bits(s[c]) != math.Float64bits(w) {
				t.Fatalf("n=%d k=%d column %d: DotK %#x, Dot %#x", n, k, c, math.Float64bits(s[c]), math.Float64bits(w))
			}
		}
		for _, args := range [][4][][]float64{{x, y, u, v}, {x, x, x, y}} {
			Dot2K(s, t2, args[0], args[1], args[2], args[3])
			for c := range s {
				ws, wt := Dot2(args[0][c], args[1][c], args[2][c], args[3][c])
				if math.Float64bits(s[c]) != math.Float64bits(ws) || math.Float64bits(t2[c]) != math.Float64bits(wt) {
					t.Fatalf("n=%d k=%d column %d: Dot2K (%#x, %#x), Dot2 (%#x, %#x)", n, k, c,
						math.Float64bits(s[c]), math.Float64bits(t2[c]), math.Float64bits(ws), math.Float64bits(wt))
				}
			}
		}
	}
	for k := 1; k <= 40; k++ {
		for n := 0; n <= 67; n++ {
			check(n, k)
		}
	}
	for _, n := range []int{512, 1029, 1500} {
		for _, k := range []int{1, 4, 7, 8, 12, 16, 21} {
			check(n, k)
		}
	}
	for _, n := range []int{1<<15 - 1, 1<<15 + 1} {
		for _, k := range []int{4, 9} {
			check(n, k)
		}
	}
}

// kernelBlocks are the benchmark shapes: one rank's block of each workload
// on 8 ranks.
var kernelBlocks = []struct {
	name string
	n    int
}{{"poisson", 512}, {"elasticity", 1029}, {"circuit", 1500}}

// BenchmarkUpdatesK is the rung of vec.iter_updates_s at width k: the three
// updates of one lockstep iteration on k columns of a rank's block — x and r
// in one AxpyAxpy, p in one Axpby — on the Go kernels and on the SIMD kernels
// the exported functions dispatch to where there are some.
func BenchmarkUpdatesK(b *testing.B) {
	type kernels struct {
		name     string
		axpyAxpy func(a float64, x, y []float64, b float64, u, v []float64)
		axpby    func(a float64, x []float64, b float64, y []float64)
	}
	ks := []kernels{{"go", axpyAxpyGo, axpbyGo}}
	if axpyAxpyLanes != nil {
		ks = append(ks, kernels{"simd", AxpyAxpy, Axpby})
	}
	for _, blk := range kernelBlocks {
		for _, k := range []int{1, 8, 16} {
			rng := rand.New(rand.NewSource(1))
			vs := make([][]float64, 5*k)
			for i := range vs {
				vs[i] = make([]float64, blk.n)
				for j := range vs[i] {
					vs[i][j] = rng.NormFloat64()
				}
			}
			x, r, z, p, u := vs[:k], vs[k:2*k], vs[2*k:3*k], vs[3*k:4*k], vs[4*k:]
			for _, kn := range ks {
				b.Run(fmt.Sprintf("%s/k%d/%s", blk.name, k, kn.name), func(b *testing.B) {
					for b.Loop() {
						for c := range k {
							kn.axpyAxpy(1e-3, p[c], x[c], -1e-3, u[c], r[c])
							kn.axpby(1, z[c], 0.5, p[c])
						}
					}
				})
			}
		}
	}
}

// BenchmarkReduceK is the rung of the iteration's two reductions at width
// k: the step's p'Ap and the norms step's (r'r, r'z) on k columns of a
// rank's block, column by column through Dot and Dot2 and as DotK and Dot2K,
// which take the SIMD kernel where there is one.
func BenchmarkReduceK(b *testing.B) {
	for _, blk := range kernelBlocks {
		for _, k := range []int{1, 8, 16} {
			rng := rand.New(rand.NewSource(1))
			vs := make([][]float64, 4*k)
			for i := range vs {
				vs[i] = make([]float64, blk.n)
				for j := range vs[i] {
					vs[i][j] = rng.NormFloat64()
				}
			}
			r, z, p, u := vs[:k], vs[k:2*k], vs[2*k:3*k], vs[3*k:]
			s, t := make([]float64, k), make([]float64, k)
			b.Run(fmt.Sprintf("%s/k%d/go", blk.name, k), func(b *testing.B) {
				for b.Loop() {
					for c := range k {
						s[c] = Dot(p[c], u[c])
						s[c], t[c] = Dot2(r[c], r[c], r[c], z[c])
					}
				}
			})
			if dot2KLanes == nil {
				continue
			}
			b.Run(fmt.Sprintf("%s/k%d/simd", blk.name, k), func(b *testing.B) {
				for b.Loop() {
					DotK(s, p, u)
					Dot2K(s, t, r, r, r, z)
				}
			})
		}
	}
}
