package cluster

import (
	"sync"
	"time"
)

// ChaosConfig parameterizes the latency/chaos transport. The zero value
// selects the defaults noted per field.
type ChaosConfig struct {
	// Seed drives the deterministic per-message delay sequence: for a
	// fixed seed, message k on a given (from, to, tag) wire always gets
	// the same delay. 0 selects seed 1.
	Seed int64
	// MaxDelay bounds the simulated wire delay of each message; delays
	// are drawn uniformly from [0, MaxDelay]. 0 selects 200µs; negative
	// disables delay entirely.
	MaxDelay time.Duration
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxDelay == 0 {
		c.MaxDelay = 200 * time.Microsecond
	}
	return c
}

// ChaosTransport wraps another transport with an asynchronous simulated
// wire: every message is held for a deterministic, seeded delay before it
// reaches the destination mailbox, reordering deliveries across distinct
// (source, tag) pairs while strictly preserving the per-(source, tag) FIFO
// order the runtime guarantees. This gives the resilience protocol a
// scenario axis that faults.Schedule cannot express: skewed collectives and
// messages arriving in any cross-wire order.
//
// Send returns once the message is on the wire, and a message whose
// destination fails (or whose runtime aborts) while it is in flight is
// dropped — counted under TransportStats.Dropped. The numerical path is
// untouched: a deterministic SPMD program still produces bit-identical
// results, because matching is selective and reduction trees are fixed.
type ChaosTransport struct {
	inner Transport
	cfg   ChaosConfig
	ct    transportCounters

	mu     sync.Mutex
	chains map[wireKey]chan struct{} // completion of the last wire delivery per key
	seqs   map[wireKey]uint64        // per-key message counter, for seeded delays
}

// wireKey identifies one FIFO wire: messages sharing it are never
// reordered relative to each other.
type wireKey struct {
	from, to, tag int
}

// NewChaosTransport wraps inner (typically NewLocalTransport()) with the
// seeded delay wire.
func NewChaosTransport(inner Transport, cfg ChaosConfig) *ChaosTransport {
	return &ChaosTransport{
		inner:  inner,
		cfg:    cfg.withDefaults(),
		chains: map[wireKey]chan struct{}{},
		seqs:   map[wireKey]uint64{},
	}
}

// Name implements Transport.
func (t *ChaosTransport) Name() string { return TransportChaos }

// GetFloats implements Transport, delegating to the wrapped transport.
func (t *ChaosTransport) GetFloats(rank, n int) []float64 { return t.inner.GetFloats(rank, n) }

// PutFloats implements Transport, delegating to the wrapped transport.
func (t *ChaosTransport) PutFloats(rank int, buf []float64) { t.inner.PutFloats(rank, buf) }

// splitmix64 is the SplitMix64 mixing function: a tiny, well-distributed
// deterministic hash for the per-message delay draw.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// delayFor draws the deterministic delay of message seq on key k.
func (t *ChaosTransport) delayFor(k wireKey, seq uint64) time.Duration {
	if t.cfg.MaxDelay <= 0 {
		return 0
	}
	h := splitmix64(uint64(t.cfg.Seed)<<32 ^
		uint64(k.from)<<42 ^ uint64(k.to)<<21 ^ uint64(k.tag) ^ seq<<1)
	return time.Duration(h % uint64(t.cfg.MaxDelay+1))
}

// Deliver implements Transport: copy the payload out of the caller's hands
// synchronously (Send's reuse contract must hold even though delivery is
// deferred), then schedule the actual mailbox hand-off after the message's
// wire delay. Per-key FIFO is preserved by chaining each delivery on the
// completion of the previous one for the same (from, to, tag) wire, so
// unequal delays can only reorder messages across distinct wires.
func (t *ChaosTransport) Deliver(dst *node, m Msg, own bool) error {
	if !own {
		m = copyPayload(&t.ct, t.inner, m)
	}
	key := wireKey{from: m.From, to: dst.rank, tag: m.Tag}
	done := make(chan struct{})
	t.mu.Lock()
	prev := t.chains[key]
	t.chains[key] = done
	seq := t.seqs[key]
	t.seqs[key] = seq + 1
	t.mu.Unlock()
	delay := t.delayFor(key, seq)
	t.ct.delayed.Add(1)
	time.AfterFunc(delay, func() {
		defer close(done)
		if prev != nil {
			<-prev // per-wire FIFO, regardless of timer firing order
		}
		// A failed destination or an aborted runtime drops the message.
		if dst.put(m) != nil {
			t.ct.dropped.Add(1)
		} else {
			t.ct.rank(m.From).delivered.Add(1)
		}
	})
	return nil
}

// Stats implements Transport: the wire's own counters merged with the
// wrapped transport's recycler counters.
func (t *ChaosTransport) Stats() TransportStats {
	s := t.ct.snapshot()
	in := t.inner.Stats()
	s.PoolGets, s.PoolPuts, s.PoolNews = in.PoolGets, in.PoolPuts, in.PoolNews
	return s
}
