package cluster

import (
	"math/bits"
	"sync"
	"unsafe"
)

// LocalTransport is the in-process fabric, and the default: delivery is a
// synchronous append to the destination's mailbox (node.put), and payload
// buffers come from a process-wide
// sync.Pool-backed recycler. Owned sends (SendOwned: the SpMV halo
// exchange, the collectives' reduction hops) hand pooled buffers straight
// to the receiver, copy-semantics sends copy into one, and receivers
// recycle what they consumed (Comm.Recycle, or when the SpMV's retention
// store drops a generation), so the steady-state loop of a PCG iteration
// sends without allocating (the pool refills only after GC drains it). Only
// buffers whose capacity is a size-class capacity — what GetFloats hands
// out — are reused; others passed to PutFloats are dropped to the GC.
//
// It answers to the name "chan" (TransportChan).
type LocalTransport struct {
	ct transportCounters
}

// NewLocalTransport returns the in-process transport.
func NewLocalTransport() *LocalTransport { return &LocalTransport{} }

// floatPools recycles payload buffers by size class: class c holds buffers
// whose capacity is exactly the one floatClass gives class c. The pools are shared by every
// transport in the process, so prepared sessions serving many solves keep
// reusing one working set. Elements are stored as a *float64 to the backing
// array's first element — a single word, so Put does not box a slice header
// — and the slice is rebuilt from the class capacity on Get.
var floatPools [floatPoolClasses]sync.Pool

// The size classes: 16 floats, then eight per octave — capacities
// m·2^(e−4) for m = 9…16 between 2^(e−1) and 2^e — so a buffer carries at
// most 1/8 slack over its request (a power-of-two round-up wastes up to
// half: a retained 16 464-float block would sit in 32 768). floatPoolClasses
// caps the pooled capacity at 2^26 floats (512 MiB); larger buffers fall
// through to the allocator.
const (
	floatMinCap      = 16
	floatPoolClasses = 1 + 8*(26-4)
)

// floatClass returns the size class serving an n-float request and that
// class's capacity: the smallest class capacity >= n.
func floatClass(n int) (cls, capacity int) {
	if n <= floatMinCap {
		return 0, floatMinCap
	}
	e := bits.Len(uint(n - 1)) // 2^(e-1) < n <= 2^e, e >= 5
	shift := e - 4
	m := (n-1)>>shift + 1 // ceil(n / 2^(e-4)), in 9..16
	return 1 + 8*(e-5) + m - 9, m << shift
}

// poolGetFloats serves a recycled buffer of length n (capacity rounded up
// to its size class) from the process-wide pools, recording traffic in ct.
// Shared by the local and net transports.
func poolGetFloats(ct *rankCounters, n int) []float64 {
	if n == 0 {
		return nil
	}
	ct.poolGets.Add(1)
	c, capacity := floatClass(n)
	if c >= floatPoolClasses {
		ct.poolNew.Add(1)
		return make([]float64, n)
	}
	if p, ok := floatPools[c].Get().(*float64); ok {
		return unsafe.Slice(p, capacity)[:n]
	}
	ct.poolNew.Add(1)
	return make([]float64, n, capacity)
}

// poolPutFloats recycles buf for a future poolGetFloats. Only exact class
// capacities (the recycler's own buffers) are kept.
func poolPutFloats(ct *rankCounters, buf []float64) {
	c := cap(buf)
	if c < floatMinCap {
		return
	}
	cls, capacity := floatClass(c)
	if capacity != c || cls >= floatPoolClasses {
		return
	}
	ct.poolPuts.Add(1)
	buf = buf[:1]
	floatPools[cls].Put(&buf[0])
}

// Name implements Transport.
func (t *LocalTransport) Name() string { return TransportChan }

// GetFloats implements Transport: a recycled buffer of length n (capacity
// rounded up to its size class, at most 1/8 over n).
func (t *LocalTransport) GetFloats(rank, n int) []float64 { return poolGetFloats(t.ct.rank(rank), n) }

// PutFloats implements Transport: recycle buf for a future GetFloats.
func (t *LocalTransport) PutFloats(rank int, buf []float64) { poolPutFloats(t.ct.rank(rank), buf) }

// Deliver implements Transport: copy the payload through the recycler
// unless ownership was transferred, then append to dst's mailbox.
func (t *LocalTransport) Deliver(dst *node, m Msg, own bool) error {
	if !own {
		m = copyPayload(&t.ct, t, m)
	}
	if err := dst.put(m); err != nil {
		return err
	}
	t.ct.rank(m.From).delivered.Add(1)
	return nil
}

// Stats implements Transport.
func (t *LocalTransport) Stats() TransportStats { return t.ct.snapshot() }
