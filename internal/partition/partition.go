// Package partition implements the contiguous block-row data distribution
// assumed by the paper (Sec. 1.1.2): every rank owns a block of n/N
// contiguous rows of all matrices and vectors; if n is not divisible by N,
// the first n mod N ranks own ceil(n/N) rows and the remainder own
// floor(n/N) rows.
package partition

import "fmt"

// Partition describes a contiguous block-row distribution of n indices over
// p ranks. The zero value is not usable; construct with NewBlockRow.
type Partition struct {
	n      int
	p      int
	starts []int // starts[i] is the first global index owned by rank i; starts[p] == n
}

// NewBlockRow returns the block-row partition of n rows over p ranks.
// It panics if p <= 0 or n < 0.
func NewBlockRow(n, p int) Partition {
	if p <= 0 {
		panic("partition: non-positive rank count")
	}
	if n < 0 {
		panic("partition: negative size")
	}
	starts := make([]int, p+1)
	q, r := n/p, n%p
	for i := 0; i < p; i++ {
		starts[i+1] = starts[i] + q
		if i < r {
			starts[i+1]++
		}
	}
	return Partition{n: n, p: p, starts: starts}
}

// FromSizes returns a partition with the given explicit block sizes, used
// for the recovery subsystem whose blocks are the (possibly unequal) blocks
// of the failed ranks. It panics on negative sizes or an empty list.
func FromSizes(sizes []int) Partition {
	if len(sizes) == 0 {
		panic("partition: FromSizes needs at least one block")
	}
	starts := make([]int, len(sizes)+1)
	for i, s := range sizes {
		if s < 0 {
			panic("partition: negative block size")
		}
		starts[i+1] = starts[i] + s
	}
	return Partition{n: starts[len(sizes)], p: len(sizes), starts: starts}
}

// N returns the total number of indices.
func (pt Partition) N() int { return pt.n }

// Ranks returns the number of ranks.
func (pt Partition) Ranks() int { return pt.p }

// Range returns the half-open global index range [lo, hi) owned by rank i.
func (pt Partition) Range(i int) (lo, hi int) {
	return pt.starts[i], pt.starts[i+1]
}

// Start returns the first global index owned by rank i.
func (pt Partition) Start(i int) int { return pt.starts[i] }

// Size returns the number of indices owned by rank i.
func (pt Partition) Size(i int) int { return pt.starts[i+1] - pt.starts[i] }

// MaxSize returns ceil(n/p), the largest block size in the partition.
func (pt Partition) MaxSize() int {
	if pt.n == 0 {
		return 0
	}
	return (pt.n + pt.p - 1) / pt.p
}

// Equal reports whether two partitions describe the same distribution.
func (pt Partition) Equal(other Partition) bool {
	if pt.n != other.n || pt.p != other.p {
		return false
	}
	for i := range pt.starts {
		if pt.starts[i] != other.starts[i] {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer.
func (pt Partition) String() string {
	return fmt.Sprintf("partition(n=%d, ranks=%d)", pt.n, pt.p)
}
