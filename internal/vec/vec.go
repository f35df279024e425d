// Package vec provides dense BLAS-1 style vector kernels used throughout the
// solver stack. All routines operate on []float64 slices and are written so
// that the compiler can keep the hot loops free of bounds checks.
//
// The kernels are sequential; parallelism in this repository comes from the
// SPMD ranks of internal/cluster, each of which works on its own block of a
// distributed vector. Parallel variants for very large node-local blocks are
// provided in par.go.
package vec

import "math"

// Dot returns the inner product x'y. It panics if the lengths differ.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("vec: Dot length mismatch")
	}
	var s float64
	for i, xv := range x {
		s += xv * y[i]
	}
	return s
}

// Dot2 returns the pair (x'y, u'v) from one pass over the four vectors. The
// two sums are independent accumulators, each with Dot's exact operation
// sequence, so each is bit-identical to its own Dot. It panics if any
// lengths differ.
func Dot2(x, y, u, v []float64) (float64, float64) {
	if len(x) != len(y) || len(u) != len(v) || len(x) != len(u) {
		panic("vec: Dot2 length mismatch")
	}
	y, u, v = y[:len(x)], u[:len(x)], v[:len(x)]
	var s, t float64
	for i, xv := range x {
		s += xv * y[i]
		t += u[i] * v[i]
	}
	return s, t
}

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
	for i, xv := range x {
		y[i] = a*xv + b*y[i]
	}
}

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
func Nrm2Sq(x []float64) float64 {
	var s float64
	for _, xv := range x {
		s += xv * xv
	}
	return s
}

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

// MulElem computes dst = x .* y element-wise. All lengths must match.
func MulElem(dst, x, y []float64) {
	if len(x) != len(y) || len(dst) != len(x) {
		panic("vec: MulElem length mismatch")
	}
	for i := range dst {
		dst[i] = x[i] * y[i]
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
