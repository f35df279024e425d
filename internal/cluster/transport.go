package cluster

import (
	"fmt"
	"sync/atomic"
)

// Transport names. NewTransport (and, one layer up, engine.Config.Transport
// and the esrd -transport flag) accepts chan and net; chaos is the name of
// the test wire that NewChaosTransport builds.
const (
	// TransportChan is the default, in-process fabric: mailbox hand-off
	// between rank goroutines, payload buffers from a sync.Pool-backed
	// recycler so the steady-state halo-exchange and collective hot loops
	// allocate nothing. (The name predates the mailbox; job specs carry it.)
	TransportChan = "chan"
	// TransportChaos is ChaosTransport's Name: the in-process fabric behind
	// deterministic, seeded message delay (reordering across distinct
	// (source, tag) pairs, FIFO within each), a test fabric for the
	// resilience protocol's ordering assumptions.
	TransportChaos = "chaos"
	// TransportNet is the TCP fabric: ranks hosted across OS processes (or
	// one process in self-loop mode) exchanging length-prefixed binary
	// frames over persistent peer connections, with a dead process
	// surfacing as a real node failure. Payload buffers share the
	// in-process fabric's recycler.
	TransportNet = "net"
)

// Transport is the pluggable rank-to-rank delivery fabric of a Runtime: it
// owns message hand-off between nodes and the payload-buffer recycler. The
// matching logic (FIFO per (source, tag),
// selective receive) lives above it in Comm and is identical for every
// transport, which is what makes deterministic SPMD programs produce
// bit-identical results on all of them.
//
// A Transport instance belongs to exactly one Runtime (cluster.New creates
// one per runtime via the factory it is given); its buffer recycler may be
// shared process-wide behind the scenes.
type Transport interface {
	// Name identifies the transport (one of the Transport* constants).
	Name() string

	// GetFloats returns a payload buffer of length n from the recycler,
	// owned by the caller; the contents are unspecified and must be fully
	// overwritten. rank is the calling rank, whose shard of the recycler
	// counters books the call (-1 for a caller outside every rank).
	GetFloats(rank, n int) []float64

	// PutFloats returns a buffer to the recycler, booked like GetFloats.
	// Only the exclusive owner of the buffer may call it, and must not
	// touch the buffer afterwards; recycling a buffer that is still
	// referenced elsewhere corrupts whoever holds the alias.
	PutFloats(rank int, buf []float64)

	// Deliver hands m to dst's mailbox. When own is false the receiver
	// must not be able to alias the caller's payload slices (the transport
	// copies them); when own is true, ownership of the slices transfers to
	// the receiver. Deliver unwinds with RankFailedError / AbortError like
	// node.put, where every transport's delivery ends; an asynchronous
	// transport may instead accept the message at once and drop it on the
	// wire when the destination fails.
	Deliver(dst *node, m Msg, own bool) error

	// Stats snapshots the transport's delivery counters.
	Stats() TransportStats
}

// NewTransport builds a transport by name. The empty name selects the
// default in-process transport.
func NewTransport(name string) (Transport, error) {
	switch name {
	case "", TransportChan:
		return NewLocalTransport(), nil
	case TransportNet:
		// Self-loop mode: real TCP frames over a loopback listener, all
		// ranks in this process. Multi-process fleets construct the
		// transport directly with a populated NetConfig.
		return NewNetTransport(NetConfig{}), nil
	}
	return nil, fmt.Errorf("cluster: unknown transport %q", name)
}

// TransportStats is a point-in-time snapshot of a transport's counters.
type TransportStats struct {
	// Delivered counts messages appended to a mailbox.
	Delivered int64 `json:"delivered"`
	// Copied counts payload copies made by copy-semantics sends (Send and
	// the forwarding hops of collectives; owned sends never copy).
	Copied int64 `json:"copied"`
	// PoolGets/PoolPuts/PoolNews count buffer-recycler traffic: buffers
	// handed out, buffers returned, and gets that had to allocate because
	// the recycler was empty.
	PoolGets int64 `json:"pool_gets"`
	PoolPuts int64 `json:"pool_puts"`
	PoolNews int64 `json:"pool_news"`
	// Dropped counts wire-dropped messages (chaos: destination failed or
	// runtime aborted while the message was in flight; net: frames decoded
	// for a failed or aborted destination).
	Dropped int64 `json:"dropped"`
	// BytesSent/BytesReceived count wire traffic (net transport only).
	BytesSent     int64 `json:"bytes_sent"`
	BytesReceived int64 `json:"bytes_received"`
	// Reconnects counts re-established peer connections (net transport
	// only): replacement-process handovers and recovered connection drops.
	Reconnects int64 `json:"reconnects"`
}

// Add accumulates o into s.
func (s *TransportStats) Add(o TransportStats) {
	s.Delivered += o.Delivered
	s.Copied += o.Copied
	s.PoolGets += o.PoolGets
	s.PoolPuts += o.PoolPuts
	s.PoolNews += o.PoolNews
	s.Dropped += o.Dropped
	s.BytesSent += o.BytesSent
	s.BytesReceived += o.BytesReceived
	s.Reconnects += o.Reconnects
}

// transportCounters is the atomic backing shared by the transport
// implementations. Deliveries and recycler calls are sharded by calling rank
// (modulo rankShards) as Counters shards the comm counters, and readers sum
// the shards.
type transportCounters struct {
	ranks           [rankShards]rankCounters
	copied, dropped atomic.Int64
}

// rankShards bounds the counter shards; ranks beyond it share them.
const rankShards = 16

// rankCounters is one shard of a transport's counters.
type rankCounters struct {
	delivered, poolGets, poolPuts, poolNew atomic.Int64
	_                                      [64]byte // keeps neighbouring shards off each other's cache lines
}

// rank returns the shard booking rank r's traffic (-1 for none).
func (c *transportCounters) rank(r int) *rankCounters { return &c.ranks[uint(r)%rankShards] }

func (c *transportCounters) snapshot() TransportStats {
	s := TransportStats{Copied: c.copied.Load(), Dropped: c.dropped.Load()}
	for i := range c.ranks {
		sh := &c.ranks[i]
		s.Delivered += sh.delivered.Load()
		s.PoolGets += sh.poolGets.Load()
		s.PoolPuts += sh.poolPuts.Load()
		s.PoolNews += sh.poolNew.Load()
	}
	return s
}

// copyPayload takes ownership of m's payload on behalf of the receiver —
// the copy-on-send half of the Msg ownership contract. The float copy goes
// through t's recycler; int payloads are setup-phase-only traffic and stay
// plainly allocated.
func copyPayload(ct *transportCounters, t Transport, m Msg) Msg {
	if len(m.F) > 0 {
		buf := t.GetFloats(m.From, len(m.F))
		copy(buf, m.F)
		m.F = buf
		ct.copied.Add(1)
	}
	if len(m.I) > 0 {
		m.I = append(make([]int, 0, len(m.I)), m.I...)
	}
	return m
}
