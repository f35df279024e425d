package partition

import (
	"testing"
	"testing/quick"
)

func TestBlockRowEven(t *testing.T) {
	pt := NewBlockRow(12, 4)
	for i := 0; i < 4; i++ {
		if pt.Size(i) != 3 {
			t.Fatalf("rank %d size %d, want 3", i, pt.Size(i))
		}
	}
	lo, hi := pt.Range(2)
	if lo != 6 || hi != 9 {
		t.Fatalf("Range(2) = [%d,%d)", lo, hi)
	}
}

func TestBlockRowUneven(t *testing.T) {
	// n = 10, p = 4: sizes must be 3,3,2,2 (ceil first, paper Sec. 1.1.2).
	pt := NewBlockRow(10, 4)
	want := []int{3, 3, 2, 2}
	for i, w := range want {
		if pt.Size(i) != w {
			t.Fatalf("rank %d size %d, want %d", i, pt.Size(i), w)
		}
	}
	if pt.MaxSize() != 3 {
		t.Fatalf("MaxSize = %d, want 3", pt.MaxSize())
	}
}

func TestEmptyBlocksAllowed(t *testing.T) {
	pt := NewBlockRow(2, 5)
	total := 0
	for i := 0; i < 5; i++ {
		total += pt.Size(i)
	}
	if total != 2 {
		t.Fatalf("sizes sum to %d, want 2", total)
	}
}

func TestPartitionQuickInvariants(t *testing.T) {
	f := func(nRaw, pRaw uint8) bool {
		n := int(nRaw)
		p := int(pRaw)%16 + 1
		pt := NewBlockRow(n, p)
		// Blocks are contiguous, cover [0,n), sizes differ by at most 1.
		sum, minSz, maxSz := 0, 1<<30, 0
		for i := 0; i < p; i++ {
			lo, hi := pt.Range(i)
			if lo != sum {
				return false
			}
			sum = hi
			sz := hi - lo
			if sz < minSz {
				minSz = sz
			}
			if sz > maxSz {
				maxSz = sz
			}
		}
		if sum != n {
			return false
		}
		return maxSz-minSz <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEqual(t *testing.T) {
	a := NewBlockRow(10, 3)
	b := NewBlockRow(10, 3)
	c := NewBlockRow(10, 4)
	if !a.Equal(b) || a.Equal(c) {
		t.Fatal("Equal misbehaves")
	}
}
