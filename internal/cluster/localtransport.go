package cluster

import (
	"math/bits"
	"sync"
	"unsafe"
)

// LocalTransport is the in-process fabric, and the default: delivery is a
// synchronous append to the destination's mailbox (node.put), failure
// notification is immediate, and payload buffers come from a process-wide
// sync.Pool-backed recycler. Owned sends (SendOwned: the SpMV halo
// exchange, the collectives' reduction hops) hand pooled buffers straight
// to the receiver, copy-semantics sends copy into one, and receivers
// recycle what they consumed (Comm.Recycle, or on retention eviction), so
// the steady-state loop of a PCG iteration sends without allocating (the
// pool refills only after GC drains it). Only buffers whose capacity is an
// exact power of two — what GetFloats hands out — are reused; others passed
// to PutFloats are dropped to the GC.
//
// It answers to the names "chan" and "fast" (see TransportFast).
type LocalTransport struct {
	ct transportCounters
}

// NewLocalTransport returns the in-process transport.
func NewLocalTransport() *LocalTransport { return &LocalTransport{} }

// floatPools recycles payload buffers by power-of-two capacity class:
// class c holds buffers with capacity exactly 1<<c. The pools are shared by
// every transport in the process, so prepared sessions serving many solves
// keep reusing one working set. Elements are stored as a *float64 to the
// backing array's first element — a single word, so Put does not box a
// slice header — and the slice is rebuilt from the class capacity on Get.
var floatPools [floatPoolClasses]sync.Pool

// floatPoolClasses caps the pooled capacity at 1<<(classes-1) floats
// (512 MiB); larger buffers fall through to the allocator.
const floatPoolClasses = 27

// poolGetFloats serves a recycled buffer of length n (capacity rounded up
// to the next power of two) from the process-wide pools, recording traffic
// in ct. Shared by the local and net transports.
func poolGetFloats(ct *transportCounters, n int) []float64 {
	if n == 0 {
		return nil
	}
	ct.poolGets.Add(1)
	c := bits.Len(uint(n - 1))
	if c >= floatPoolClasses {
		ct.poolNew.Add(1)
		return make([]float64, n)
	}
	if p, ok := floatPools[c].Get().(*float64); ok {
		return unsafe.Slice(p, 1<<c)[:n]
	}
	ct.poolNew.Add(1)
	return make([]float64, n, 1<<c)
}

// poolPutFloats recycles buf for a future poolGetFloats. Only exact
// power-of-two capacities (the recycler's own buffers) are kept.
func poolPutFloats(ct *transportCounters, buf []float64) {
	c := cap(buf)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	cls := bits.Len(uint(c)) - 1
	if cls >= floatPoolClasses {
		return
	}
	ct.poolPuts.Add(1)
	buf = buf[:1]
	floatPools[cls].Put(&buf[0])
}

// Name implements Transport.
func (t *LocalTransport) Name() string { return TransportChan }

// GetFloats implements Transport: a recycled buffer of length n (capacity
// rounded up to the next power of two).
func (t *LocalTransport) GetFloats(n int) []float64 { return poolGetFloats(&t.ct, n) }

// PutFloats implements Transport: recycle buf for a future GetFloats.
func (t *LocalTransport) PutFloats(buf []float64) { poolPutFloats(&t.ct, buf) }

// Deliver implements Transport: copy the payload through the recycler
// unless ownership was transferred, then append to dst's mailbox.
func (t *LocalTransport) Deliver(sender, dst *node, m Msg, own bool) error {
	if !own {
		m = copyPayload(&t.ct, t, m)
	}
	if err := dst.put(sender, m); err != nil {
		return err
	}
	t.ct.delivered.Add(1)
	return nil
}

// NotifyKill implements Transport: peers observe the death immediately
// (faithful fail-stop notification, as ULFM's error propagation models).
func (t *LocalTransport) NotifyKill(nd *node) { nd.notifyPeers() }

// Stats implements Transport.
func (t *LocalTransport) Stats() TransportStats { return t.ct.snapshot() }
