package cluster

import "testing"

// TestRecyclerSizeClasses pins the float recycler's contract: a buffer's
// capacity is at most 1/8 over its request (16 floats minimum), a recycled
// buffer comes back for the next request of its class, and a buffer whose
// capacity is not a class capacity is dropped instead of pooled.
func TestRecyclerSizeClasses(t *testing.T) {
	tr := NewLocalTransport()
	check := func(n int) {
		buf := tr.GetFloats(-1, n)
		if len(buf) != n {
			t.Fatalf("GetFloats(%d): len %d", n, len(buf))
		}
		if c := cap(buf); c > max(floatMinCap, n+n/8) {
			t.Fatalf("GetFloats(%d): cap %d, want <= %d", n, c, max(floatMinCap, n+n/8))
		}
		if _, c := floatClass(cap(buf)); c != cap(buf) {
			t.Fatalf("GetFloats(%d): cap %d is not a class capacity", n, cap(buf))
		}
		tr.PutFloats(-1, buf)
	}
	for n := 1; n <= 1<<12; n++ {
		check(n)
	}
	for e := 12; e <= 22; e++ {
		for _, d := range []int{-1, 0, 1, 1 << (e - 5), 1 << (e - 4), 3 << (e - 3)} {
			check(1<<e + d)
		}
	}
	// Classes are monotone and contiguous: every capacity maps to itself.
	prev := 0
	for n := 1; n <= 1<<16; n++ {
		cls, c := floatClass(n)
		if cls < prev || cls > prev+1 {
			t.Fatalf("floatClass(%d) = %d after %d", n, cls, prev)
		}
		if back, bc := floatClass(c); back != cls || bc != c {
			t.Fatalf("class capacity %d of %d maps to (%d, %d)", c, n, back, bc)
		}
		prev = cls
	}

	// A Put/Get round trip hands the same buffer back. Under the race
	// detector sync.Pool drops some Puts on purpose, so try a few times.
	reused := false
	for try := 0; try < 64 && !reused; try++ {
		buf := tr.GetFloats(-1, 16464)
		tr.PutFloats(-1, buf)
		again := tr.GetFloats(-1, 18000) // the same class: capacity 18 432
		reused = &again[:1][0] == &buf[:1][0]
		tr.PutFloats(-1, again)
	}
	if !reused {
		t.Error("a recycled buffer was never handed out again")
	}

	// Foreign capacities are dropped, not pooled.
	before := tr.Stats().PoolPuts
	for _, c := range []int{1, 8, 15, 17, 33, 1000, 16464} {
		tr.PutFloats(-1, make([]float64, c))
	}
	if got := tr.Stats().PoolPuts - before; got != 0 {
		t.Errorf("%d foreign buffers were pooled", got)
	}
	tr.PutFloats(-1, make([]float64, 18))
	if got := tr.Stats().PoolPuts - before; got != 1 {
		t.Errorf("a class-capacity buffer was not pooled (%d puts)", got)
	}
}
