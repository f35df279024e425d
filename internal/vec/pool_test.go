package vec

import (
	"math/rand"
	"sync"
	"testing"
)

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

// TestQuickParallelCoversOnce: every index of [0, n) is visited exactly once
// regardless of the chunk/thread configuration (the disjoint-cover contract
// the deterministic kernels rely on).
func TestQuickParallelCoversOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 100_000} {
		for _, nchunks := range []int{1, 3, 13, 1000} {
			for _, threads := range []int{0, 1, 2, 16} {
				visits := make([]int32, n)
				var mu sync.Mutex
				Parallel(n, nchunks, threads, func(_, lo, hi int) {
					mu.Lock()
					for i := lo; i < hi; i++ {
						visits[i]++
					}
					mu.Unlock()
				})
				for i, v := range visits {
					if v != 1 {
						t.Fatalf("n=%d nchunks=%d threads=%d: index %d visited %d times",
							n, nchunks, threads, i, v)
					}
				}
			}
		}
	}
}

// TestQuickParDotThreadInvariant: the reduction grid is a pure function of
// the length, so ParDotN returns the same bit pattern for every thread
// setting — the guarantee that makes a solve's answer independent of how
// many pool workers happen to pick up its chunks.
func TestQuickParDotThreadInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := parThreshold + 12345
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	ref := ParDotN(x, y, 1)
	for _, threads := range []int{0, 2, 3, 8, 64} {
		if got := ParDotN(x, y, threads); got != ref {
			t.Fatalf("threads=%d: ParDot = %x, threads=1 gave %x", threads, got, ref)
		}
	}
	// The sequential reference over the same chunk grid must match too.
	var seq float64
	for c := 0; c < reduceChunks(n); c++ {
		lo, hi := chunkRange(n, reduceChunks(n), c)
		seq += Dot(x[lo:hi], y[lo:hi])
	}
	if seq != ref {
		t.Fatalf("chunked sequential sum %x != ParDot %x", seq, ref)
	}
}

// TestQuickParallelConcurrentCallers: many goroutines hammering the shared
// pool concurrently must each still see a correct result (chunks of
// different tasks must not leak across tasks).
func TestQuickParallelConcurrentCallers(t *testing.T) {
	const callers = 8
	n := parThreshold * 2
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i % 97)
	}
	want := ParDotN(x, x, 1)
	var wg sync.WaitGroup
	errs := make([]bool, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				if ParDot(x, x) != want {
					errs[c] = true
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for c, bad := range errs {
		if bad {
			t.Fatalf("caller %d observed a wrong pooled reduction", c)
		}
	}
}
