package vec

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The shared worker pool behind every parallel kernel in this repository
// (Par* in this package, sparse.MulMatScatterPar, precond.Jacobi). The pool
// is sized once to GOMAXPROCS-1 resident workers — the caller's goroutine is
// always the p-th worker — so concurrent solves share one bounded set of
// compute goroutines instead of each Par* call spawning its own (the
// pre-pool chunks() behaviour, which under many concurrent solves multiplied
// goroutine churn by the call rate of the hot loop).
//
// Work distribution is cooperative and optional: a Parallel call splits its
// index range into a deterministic chunk grid, publishes the task, and then
// consumes chunks itself; idle workers that pick the task up merely steal
// chunks off the same atomic counter. Correctness therefore never depends on
// worker availability — with every worker busy (or none, GOMAXPROCS 1) the
// caller simply computes all chunks alone — and the chunk grid, not the
// worker count, fixes every split, which is what keeps the reductions in
// par.go bit-identical for any thread setting.

// parTask is one published Parallel call: workers grab chunk indices from
// next until the grid is exhausted.
type parTask struct {
	f       func(c, lo, hi int)
	n       int
	nchunks int
	next    atomic.Int64
	wg      sync.WaitGroup
}

// run consumes chunks until the grid is exhausted.
func (t *parTask) run() {
	for {
		c := int(t.next.Add(1)) - 1
		if c >= t.nchunks {
			return
		}
		lo, hi := chunkRange(t.n, t.nchunks, c)
		t.f(c, lo, hi)
		t.wg.Done()
	}
}

// chunkRange returns the half-open index range of chunk c in the grid that
// splits [0, n) into nchunks nearly equal parts (the first n%nchunks chunks
// are one element longer). The grid depends only on (n, nchunks), never on
// which goroutine computes a chunk.
func chunkRange(n, nchunks, c int) (lo, hi int) {
	q, r := n/nchunks, n%nchunks
	lo = c*q + min(c, r)
	hi = lo + q
	if c < r {
		hi++
	}
	return lo, hi
}

var (
	poolOnce sync.Once
	// poolQueue hands published tasks to the resident workers. Sends are
	// non-blocking: a full queue means every worker is already busy, and the
	// publishing caller will chew through its own chunks regardless.
	poolQueue chan *parTask
	// poolWorkers is the resident worker count (GOMAXPROCS-1 at first use).
	poolWorkers int
)

func poolInit() {
	poolOnce.Do(func() {
		poolWorkers = runtime.GOMAXPROCS(0) - 1
		if poolWorkers < 0 {
			poolWorkers = 0
		}
		poolQueue = make(chan *parTask, poolWorkers)
		for i := 0; i < poolWorkers; i++ {
			go func() {
				for t := range poolQueue {
					t.run()
				}
			}()
		}
	})
}

// PoolWorkers returns the number of resident pool workers (GOMAXPROCS-1 at
// the pool's first use; 0 on a single-CPU machine, where every parallel
// kernel degrades to the caller's goroutine).
func PoolWorkers() int {
	poolInit()
	return poolWorkers
}

// Parallel invokes f over a deterministic chunk grid covering [0, n),
// running at most p goroutines concurrently (the caller plus up to p-1 pool
// workers; p <= 0 selects GOMAXPROCS). nchunks fixes the grid; Parallel
// clamps it to [1, n] (n 0 is a no-op). f receives the chunk index c (for
// per-chunk outputs such as reduction partials) and the chunk's half-open
// range. Chunks are disjoint and cover [0, n) exactly once, so kernels
// writing disjoint outputs are bit-identical to a sequential run for every
// p.
func Parallel(n, nchunks, p int, f func(c, lo, hi int)) {
	if n <= 0 {
		return
	}
	if nchunks > n {
		nchunks = n
	}
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if nchunks <= 1 || p <= 1 {
		for c := 0; c < nchunks; c++ {
			lo, hi := chunkRange(n, nchunks, c)
			f(c, lo, hi)
		}
		return
	}
	poolInit()
	t := &parTask{f: f, n: n, nchunks: nchunks}
	t.wg.Add(nchunks)
	// Offer the task to up to p-1 idle workers; a full queue (or an empty
	// pool) just leaves more chunks to the caller.
	helpers := p - 1
	if helpers > nchunks-1 {
		helpers = nchunks - 1
	}
offer:
	for i := 0; i < helpers; i++ {
		select {
		case poolQueue <- t:
		default:
			break offer // queue full: every worker is busy
		}
	}
	t.run()
	// run returns once the counter is exhausted, but workers may still be
	// inside their last chunk; wait for every chunk to complete.
	t.wg.Wait()
}
