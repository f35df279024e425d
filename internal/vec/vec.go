// Package vec provides dense BLAS-1 style vector kernels used throughout the
// solver stack. All routines operate on []float64 slices and are written so
// that the compiler can keep the hot loops free of bounds checks.
//
// The kernels are sequential: parallelism in this repository comes from the
// SPMD ranks of internal/cluster, each of which works on its own block of a
// distributed vector, and the one node-local kernel large enough to split
// across cores, the SpMV, fans out inside internal/sparse.
//
// The reductions Dot, Dot2 and Nrm2Sq sum a long vector (n >= 2^15) over a
// fixed grid of ceil(n/2^13) chunks: each chunk accumulates on its own and
// the partials are added in index order. The grid depends on n alone, so a
// reduction's bits depend on its input alone.
//
// On amd64 CPUs with AVX2 (internal/simd's probe, read once at init) the
// element-wise updates AxpyAxpy and Axpby and the k-column reductions DotK
// and Dot2K run as Go-assembly kernels (vec_amd64.s). The updates put one
// element per lane, a multiply and an add each rounded as in the Go loop, so
// they serve every solve, k = 1 included. A single sum is one dependency
// chain, so the reductions vectorise across columns only: four columns per
// register, each lane running its column's Dot or Dot2 sequence. The Go
// kernels stay the reference and run everywhere else (another GOARCH, a CPU
// without AVX2, the purego build tag).
package vec

import (
	"iter"
	"math"
)

// gridMin is the vector length from which the reductions sum over the
// chunk grid, and gridChunk the element count of one chunk.
const gridMin, gridChunk = 1 << 15, 1 << 13

// grid yields, in index order, the ranges a reduction of length n sums on
// their own before adding the partials: [0, n) whole below gridMin, else
// ceil(n/gridChunk) nearly equal chunks, the first n%nchunks of them one
// element longer.
func grid(n int) iter.Seq2[int, int] {
	return func(yield func(lo, hi int) bool) {
		if n < gridMin {
			yield(0, n)
			return
		}
		nc := (n + gridChunk - 1) / gridChunk
		q, r := n/nc, n%nc
		for c, lo := 0, 0; c < nc; c++ {
			hi := lo + q
			if c < r {
				hi++
			}
			if !yield(lo, hi) {
				return
			}
			lo = hi
		}
	}
}

// Dot returns the inner product x'y. It panics if the lengths differ.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("vec: Dot length mismatch")
	}
	var s float64
	for lo, hi := range grid(len(x)) {
		x, y := x[lo:hi], y[lo:hi]
		var p float64
		for i, xv := range x {
			p += xv * y[i]
		}
		s += p
	}
	return s
}

// Dot2 returns the pair (x'y, u'v) from one pass over the four vectors. The
// two sums are independent accumulators, each with Dot's exact operation
// sequence and grid, so each is bit-identical to its own Dot. It panics if
// any lengths differ.
func Dot2(x, y, u, v []float64) (float64, float64) {
	if len(x) != len(y) || len(u) != len(v) || len(x) != len(u) {
		panic("vec: Dot2 length mismatch")
	}
	var s, t float64
	for lo, hi := range grid(len(x)) {
		x, y, u, v := x[lo:hi], y[lo:hi], u[lo:hi], v[lo:hi]
		var p, q float64
		for i, xv := range x {
			p += xv * y[i]
			q += u[i] * v[i]
		}
		s, t = s+p, t+q
	}
	return s, t
}

// DotK sets s[c] = Dot(x[c], y[c]) for every column c, bit for bit. The
// columns share one length n; it panics if any length differs. Below the
// grid's 2^15 elements the SIMD kernel, where there is one, takes the first
// k - k%8 columns as Dot2K's pairs, column c beside column c + (k - k%8)/2,
// so that independent sums share each pass, then four more columns as both
// halves of one pair; the rest run as paired Dot2 calls.
func DotK(s []float64, x, y [][]float64) {
	k := len(s)
	if len(x) != k || len(y) != k {
		panic("vec: DotK column count mismatch")
	}
	if k == 0 {
		return
	}
	n := len(x[0])
	for c := range k {
		if len(x[c]) != n || len(y[c]) != n {
			panic("vec: DotK length mismatch")
		}
	}
	c := 0
	if dot2KLanes != nil && n < gridMin {
		if c = k &^ 7; c > 0 {
			h := c / 2
			dot2KLanes(s[:h], s[h:c], x[:h], y[:h], x[h:c], y[h:c], n)
		}
		if c+4 <= k {
			dot2KLanes(s[c:c+4], s[c:c+4], x[c:c+4], y[c:c+4], x[c:c+4], y[c:c+4], n)
			c += 4
		}
	}
	for ; c+2 <= k; c += 2 {
		s[c], s[c+1] = Dot2(x[c], y[c], x[c+1], y[c+1])
	}
	if c < k {
		s[c] = Dot(x[c], y[c])
	}
}

// Dot2K sets (s[c], t[c]) = Dot2(x[c], y[c], u[c], v[c]) for every column
// c, bit for bit. The columns share one length n; it panics if any length
// differs. Below the grid's 2^15 elements the SIMD kernel, where there is
// one, takes the columns four at a time; the rest run through Dot2.
func Dot2K(s, t []float64, x, y, u, v [][]float64) {
	k := len(s)
	if len(t) != k || len(x) != k || len(y) != k || len(u) != k || len(v) != k {
		panic("vec: Dot2K column count mismatch")
	}
	if k == 0 {
		return
	}
	n := len(x[0])
	for c := range k {
		if len(x[c]) != n || len(y[c]) != n || len(u[c]) != n || len(v[c]) != n {
			panic("vec: Dot2K length mismatch")
		}
	}
	c := 0
	if dot2KLanes != nil && n < gridMin {
		c = k &^ 3
		if c > 0 {
			dot2KLanes(s[:c], t[:c], x[:c], y[:c], u[:c], v[:c], n)
		}
	}
	for ; c < k; c++ {
		s[c], t[c] = Dot2(x[c], y[c], u[c], v[c])
	}
}

// dot2KLanes, when set, is the SIMD kernel of DotK and Dot2K for a multiple
// of four columns of length n < 2^15: (s[c], t[c]) = (x[c]'y[c], u[c]'v[c]).
// Eight or four rows of each column are multiplied in the column's own
// layout, the products cross into row order as 4×4 transposes, and each
// lane adds its column's products to its running sum one row at a time,
// starting from 0 —
// Dot's scalar sequence, each operation rounded, no FMA. The x'y and u'v
// sums of a group are two independent add chains. It does no bounds checks.
// Set at init on CPUs that have it (vec_amd64.go); nil elsewhere.
var dot2KLanes func(s, t []float64, x, y, u, v [][]float64, n int)

// Axpy computes y += a*x in place. It panics if the lengths differ.
func Axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic("vec: Axpy length mismatch")
	}
	for i, xv := range x {
		y[i] += a * xv
	}
}

// AxpyAxpy fuses the PCG update pair into one pass: y += a*x and v += b*u.
// The two updates are element-wise independent (PCG's x/r updates touch
// disjoint vectors), so the fusion is bit-identical to the two Axpy calls
// while reading each index range once. It panics if any lengths differ.
func AxpyAxpy(a float64, x, y []float64, b float64, u, v []float64) {
	if len(x) != len(y) || len(u) != len(v) || len(x) != len(u) {
		panic("vec: AxpyAxpy length mismatch")
	}
	if axpyAxpyLanes != nil {
		axpyAxpyLanes(a, x, y, b, u, v)
		return
	}
	axpyAxpyGo(a, x, y, b, u, v)
}

// axpyAxpyGo is AxpyAxpy in Go, the reference of the SIMD kernel. Each index
// reads x and y, writes y, then reads u and v and writes v, so the slices
// may also be one and the same.
func axpyAxpyGo(a float64, x, y []float64, b float64, u, v []float64) {
	y = y[:len(x)]
	u = u[:len(x)]
	v = v[:len(x)]
	for i, xv := range x {
		y[i] += a * xv
		v[i] += b * u[i]
	}
}

// Axpby computes y = a*x + b*y in place. It panics if the lengths differ.
func Axpby(a float64, x []float64, b float64, y []float64) {
	if len(x) != len(y) {
		panic("vec: Axpby length mismatch")
	}
	if axpbyLanes != nil {
		axpbyLanes(a, x, b, y)
		return
	}
	axpbyGo(a, x, b, y)
}

// axpbyGo is Axpby in Go, the reference of the SIMD kernel.
func axpbyGo(a float64, x []float64, b float64, y []float64) {
	y = y[:len(x)]
	for i, xv := range x {
		y[i] = a*xv + b*y[i]
	}
}

// axpyAxpyLanes and axpbyLanes, when set, are the SIMD kernels of AxpyAxpy
// and Axpby: one element per lane, a VMULPD and then a VADDPD per update,
// each rounded as in the Go loop and in its order, four or eight elements
// per pass and the last few in the scalar forms of the same instructions.
// They do no bounds checks. Set at init on CPUs that have them
// (vec_amd64.go); nil elsewhere.
var (
	axpyAxpyLanes func(a float64, x, y []float64, b float64, u, v []float64)
	axpbyLanes    func(a float64, x []float64, b float64, y []float64)
)

// XpayInto computes dst = x + a*y. All three slices must have equal length.
func XpayInto(dst, x []float64, a float64, y []float64) {
	if len(x) != len(y) || len(dst) != len(x) {
		panic("vec: XpayInto length mismatch")
	}
	for i := range dst {
		dst[i] = x[i] + a*y[i]
	}
}

// Scale multiplies x by a in place.
func Scale(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}

// Copy copies src into dst and panics if the lengths differ.
func Copy(dst, src []float64) {
	if len(dst) != len(src) {
		panic("vec: Copy length mismatch")
	}
	copy(dst, src)
}

// Clone returns a freshly allocated copy of x.
func Clone(x []float64) []float64 {
	c := make([]float64, len(x))
	copy(c, x)
	return c
}

// Zero sets every element of x to zero.
func Zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// Fill sets every element of x to v.
func Fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}

// Nrm2 returns the Euclidean norm of x, guarding against overflow for
// very large entries by scaling.
func Nrm2(x []float64) float64 {
	var scale, ssq float64 = 0, 1
	for _, xv := range x {
		if xv == 0 {
			continue
		}
		ax := math.Abs(xv)
		if scale < ax {
			r := scale / ax
			ssq = 1 + ssq*r*r
			scale = ax
		} else {
			r := ax / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// Nrm2Sq returns the squared Euclidean norm x'x (no overflow guard; used for
// accumulating partial sums across ranks where the guard cannot compose).
// It is Dot(x, x), bit for bit.
func Nrm2Sq(x []float64) float64 { return Dot(x, x) }

// NrmInf returns the maximum absolute entry of x (0 for an empty vector).
func NrmInf(x []float64) float64 {
	var m float64
	for _, xv := range x {
		if a := math.Abs(xv); a > m {
			m = a
		}
	}
	return m
}

// Sub computes dst = x - y element-wise. All lengths must match.
func Sub(dst, x, y []float64) {
	if len(x) != len(y) || len(dst) != len(x) {
		panic("vec: Sub length mismatch")
	}
	for i := range dst {
		dst[i] = x[i] - y[i]
	}
}

// Add computes dst = x + y element-wise. All lengths must match.
func Add(dst, x, y []float64) {
	if len(x) != len(y) || len(dst) != len(x) {
		panic("vec: Add length mismatch")
	}
	for i := range dst {
		dst[i] = x[i] + y[i]
	}
}

// MaxAbsDiff returns the maximum absolute element-wise difference between x
// and y. It panics if the lengths differ.
func MaxAbsDiff(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("vec: MaxAbsDiff length mismatch")
	}
	var m float64
	for i := range x {
		if d := math.Abs(x[i] - y[i]); d > m {
			m = d
		}
	}
	return m
}
