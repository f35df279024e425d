package vec

// parThreshold is the minimum slice length for which the parallel variants
// fan out to the worker pool; below it the sequential kernel is faster.
const parThreshold = 1 << 15

// parChunk is the element count of one reduction chunk. The chunk grid of a
// parallel reduction depends only on the vector length — never on the thread
// setting or on GOMAXPROCS — so ParDot and friends return the same bit
// pattern for every thread count (including 1) on every machine.
const parChunk = 1 << 13

// reduceChunks returns the fixed reduction grid size for length n.
func reduceChunks(n int) int { return (n + parChunk - 1) / parChunk }

// ParDot returns x'y, splitting the work across the shared worker pool for
// large vectors. Deterministic: the chunk grid is a pure function of the
// length, each chunk accumulates locally, and the partials are summed in
// index order — so the result is bit-identical for every thread count.
func ParDot(x, y []float64) float64 { return ParDotN(x, y, 0) }

// ParDotN is ParDot bounded to at most `threads` concurrent goroutines
// (<= 0 selects GOMAXPROCS). The thread bound never changes the result: it
// only caps how many chunks of the fixed grid are in flight at once.
func ParDotN(x, y []float64, threads int) float64 {
	if len(x) != len(y) {
		panic("vec: ParDot length mismatch")
	}
	n := len(x)
	if n < parThreshold {
		return Dot(x, y)
	}
	nchunks := reduceChunks(n)
	partial := make([]float64, nchunks)
	Parallel(n, nchunks, threads, func(c, lo, hi int) {
		partial[c] = Dot(x[lo:hi], y[lo:hi])
	})
	var s float64
	for _, v := range partial {
		s += v
	}
	return s
}

// ParDot2 returns the pair (x'y, u'v) from one pass over the four vectors:
// Dot2 per chunk of ParDot's grid, the two partial lists summed in index
// order. Each result is bit-identical to ParDot of its own pair.
func ParDot2(x, y, u, v []float64) (float64, float64) {
	if len(x) != len(y) || len(u) != len(v) || len(x) != len(u) {
		panic("vec: ParDot2 length mismatch")
	}
	n := len(x)
	if n < parThreshold {
		return Dot2(x, y, u, v)
	}
	nchunks := reduceChunks(n)
	partial := make([]float64, 2*nchunks)
	Parallel(n, nchunks, 0, func(c, lo, hi int) {
		partial[2*c], partial[2*c+1] = Dot2(x[lo:hi], y[lo:hi], u[lo:hi], v[lo:hi])
	})
	var s, t float64
	for c := 0; c < nchunks; c++ {
		s += partial[2*c]
		t += partial[2*c+1]
	}
	return s, t
}

// ParNrm2Sq returns the squared Euclidean norm x'x, splitting the work
// across the shared worker pool for large vectors. Like Nrm2Sq it carries no
// overflow guard (partial sums must compose across ranks). It is exactly
// ParDot(x, x) — same multiply-add sequence, bit-identical result.
func ParNrm2Sq(x []float64) float64 { return ParDotN(x, x, 0) }

// ParNrm2SqN is ParNrm2Sq bounded to at most `threads` goroutines.
func ParNrm2SqN(x []float64, threads int) float64 { return ParDotN(x, x, threads) }

// ParAxpy computes y += a*x on the shared worker pool for large vectors.
// Element-wise, so bit-identical to Axpy for every thread count.
func ParAxpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic("vec: ParAxpy length mismatch")
	}
	n := len(x)
	if n < parThreshold {
		Axpy(a, x, y)
		return
	}
	Parallel(n, reduceChunks(n), 0, func(_, lo, hi int) {
		Axpy(a, x[lo:hi], y[lo:hi])
	})
}

// ParAxpyAxpy is AxpyAxpy (y += a*x; v += b*u in one fused pass) on the
// shared worker pool for large vectors, bounded to at most `threads`
// goroutines. Element-wise, so bit-identical to AxpyAxpy for every thread
// count.
func ParAxpyAxpy(a float64, x, y []float64, b float64, u, v []float64, threads int) {
	if len(x) != len(y) || len(u) != len(v) || len(x) != len(u) {
		panic("vec: ParAxpyAxpy length mismatch")
	}
	n := len(x)
	if n < parThreshold {
		AxpyAxpy(a, x, y, b, u, v)
		return
	}
	Parallel(n, reduceChunks(n), threads, func(_, lo, hi int) {
		AxpyAxpy(a, x[lo:hi], y[lo:hi], b, u[lo:hi], v[lo:hi])
	})
}
