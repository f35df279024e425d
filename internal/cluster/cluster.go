// Package cluster implements an in-process distributed-memory SPMD runtime:
// the substitute for MPI + ULFM in the paper's experimental setup (README.md,
// "The communication fabric"). Every rank runs as its own goroutine with
// strictly private memory; all data exchange goes through typed messages
// appended to the destination rank's mailbox. The runtime provides
//
//   - point-to-point Send/Recv with (source, tag) matching,
//   - binomial-tree collectives over every rank (Barrier, Reduce,
//     Allreduce, Bcast, Gatherv),
//   - fail-stop notification: a slot whose process the net fabric finds
//     dead fails, and peers observe RankFailedError on communication
//     (ULFM-style) once they have drained what it sent first,
//   - communication counters by category for the overhead analysis.
//
// The message layer is deterministic for deterministic SPMD programs:
// matching is FIFO per (source, tag) pair and reductions use a fixed tree
// order, so repeated runs produce bit-identical floating-point results.
//
// Delivery itself is pluggable: every rank-to-rank hand-off flows through
// the runtime's Transport (WithTransport). LocalTransport is the one
// in-process fabric (mailbox hand-off, payload buffers from a pooled
// recycler, so steady-state solves send without allocating) and
// NetTransport real TCP; NewTransport builds either by name. ChaosTransport,
// a seeded-latency wire that reorders deliveries across wires, is a test
// fabric: tests install it with WithTransport to stress the resilience
// protocol's ordering assumptions, and no configuration names it. Every
// fabric ends in the same mailbox append (node.put), and matching lives
// above the transport, so all fabrics share the determinism guarantee.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Msg is a message exchanged between ranks. Payloads are a float64 slice
// and/or an int slice. Ownership follows the send variant used:
//
//   - Send copies payloads (on every transport), so the sender may reuse
//     its buffers immediately, and the receiver exclusively owns the
//     slices it gets.
//   - SendOwned transfers ownership: the sender must not touch the slices
//     after the call (success or error), and the receiver owns them.
//
// Either way the receiver is the exclusive owner of a received message's
// payloads; once it is done with them (and does not retain them, e.g. in
// the SpMV retention store) it may hand them back to the transport's
// buffer recycler with Comm.Recycle.
type Msg struct {
	From int
	Tag  int
	F    []float64
	I    []int
}

// latch is a one-shot event: read lock-free on the send and receive paths,
// waitable through ch by the net transport's connection waits.
type latch struct {
	flag atomic.Bool
	ch   chan struct{}
}

func newLatch() latch { return latch{ch: make(chan struct{})} }

// trip fires the latch and reports whether this call was the one that did.
func (l *latch) trip() bool {
	if !l.flag.CompareAndSwap(false, true) {
		return false
	}
	close(l.ch)
	return true
}

func (l *latch) isSet() bool { return l.flag.Load() }

// node is the runtime-side state of one rank slot: its mailbox and its
// failure latch. failed is tripped only by fail, which the net fabric calls
// when it finds the slot's process dead (a lost connection); a solve's own
// failures are scheduled wipes at its poll points and never touch it.
//
// The mailbox is a mutex-guarded FIFO: a delivery is an append, plus a
// Signal if the owner is parked; a receive swaps the whole queue out under
// the lock and matches outside it. The owner parks only on an empty mailbox
// and re-reads the failure/abort latches under mu whenever it wakes; whoever
// trips a latch passes through mu before broadcasting (wakeAll), which rules
// out a lost wake-up.
//
// The queue is unbounded: delivery never blocks the sender, so there is no
// full-inbox deadlock and no back-pressure. What bounds it is the SPMD
// programs' lock-step: no rank leaves one of a PCG iteration's two
// allreduces before every rank entered it, so a rank is never more than one
// iteration ahead of its slowest peer and a mailbox never holds more than
// two iterations' worth of incoming messages (TestMailboxStaysShallow).
type node struct {
	rt   *Runtime
	rank int

	mu        sync.Mutex
	cond      sync.Cond // L is &mu
	queue     []Msg     // delivered, not yet taken by the owner
	parked    bool      // the owner is in cond.Wait
	received  int       // messages ever appended
	highWater int       // max len(queue) ever observed

	failed latch // the slot's process was found dead
}

// put is the one delivery path every transport ends in: refuse if the node
// has failed or the runtime is aborted; otherwise append and wake the owner
// if it is parked.
func (nd *node) put(m Msg) error {
	switch {
	case nd.failed.isSet():
		return &RankFailedError{Rank: nd.rank}
	case nd.rt.abort.isSet():
		return nd.rt.abortErr()
	}
	nd.mu.Lock()
	nd.queue = append(nd.queue, m)
	nd.received++
	if len(nd.queue) > nd.highWater {
		nd.highWater = len(nd.queue)
	}
	parked := nd.parked
	nd.mu.Unlock()
	if parked {
		nd.cond.Signal()
	}
	return nil
}

// fail marks the node failed and wakes every mailbox, so a receiver parked
// on it unwinds. It is the only way a slot fails.
func (nd *node) fail() {
	if nd.failed.trip() {
		nd.rt.wakeAll()
	}
}

// Runtime owns the rank slots of a simulated distributed-memory machine.
// All rank-to-rank delivery flows through its Transport (the in-process
// fabric by default; see WithTransport).
type Runtime struct {
	size      int
	transport Transport
	nodes     []*node
	counters  Counters

	abort      latch // tripped by Abort
	abortOnce  sync.Once
	abortCause error // set before abort trips; read only after it is seen set
}

// Option configures a Runtime at construction.
type Option func(*Runtime)

// WithTransport selects the communication fabric. The transport instance
// must be dedicated to this runtime (transports carry per-runtime state);
// nil keeps the default. Use NewTransport to build one by name.
func WithTransport(t Transport) Option {
	return func(rt *Runtime) {
		if t != nil {
			rt.transport = t
		}
	}
}

// runtimeBinder is implemented by transports that need the runtime at
// construction (the net transport: listener setup, peer layout validation).
// New invokes it once, after the rank slots exist.
type runtimeBinder interface {
	bindRuntime(rt *Runtime)
}

// New creates a runtime with the given number of rank slots.
func New(size int, opts ...Option) *Runtime {
	if size <= 0 {
		panic("cluster: non-positive size")
	}
	rt := &Runtime{size: size, nodes: make([]*node, size),
		counters: newCounters(size), abort: newLatch()}
	for _, opt := range opts {
		opt(rt)
	}
	if rt.transport == nil {
		rt.transport = NewLocalTransport()
	}
	for i := range rt.nodes {
		nd := &node{rt: rt, rank: i, failed: newLatch()}
		nd.cond.L = &nd.mu
		rt.nodes[i] = nd
	}
	if b, ok := rt.transport.(runtimeBinder); ok {
		b.bindRuntime(rt)
	}
	return rt
}

// Size returns the number of rank slots.
func (rt *Runtime) Size() int { return rt.size }

// Transport returns the runtime's communication fabric.
func (rt *Runtime) Transport() Transport { return rt.transport }

// Counters returns the global communication counters.
func (rt *Runtime) Counters() *Counters { return &rt.counters }

// nodeAt returns the node in slot rank.
func (rt *Runtime) nodeAt(rank int) *node { return rt.nodes[rank] }

// wakeAll makes every parked mailbox owner re-read the latches. The empty
// critical section orders the caller's latch write against the owner's
// check: the owner has either not checked yet (and will see the latch) or is
// already on cond's notify list (and gets the broadcast).
func (rt *Runtime) wakeAll() {
	for _, nd := range rt.nodes {
		nd.mu.Lock()
		nd.mu.Unlock()
		nd.cond.Broadcast()
	}
}

// Abort tears the whole runtime down: every pending and future communication
// operation on every rank fails with an AbortError wrapping cause. Unlike a
// failed slot, which is the fail-stop loss of one node, Abort models an
// administrative shutdown (job cancellation, deadline): no recovery runs and
// Runtime.Run filters the resulting per-rank errors as expected termination.
// Safe to call from any goroutine; only the first call's cause is kept.
func (rt *Runtime) Abort(cause error) {
	rt.abortOnce.Do(func() {
		rt.abortCause = cause
		rt.abort.trip()
		rt.wakeAll()
	})
}

// Aborted reports whether the runtime has been aborted, and the cause.
func (rt *Runtime) Aborted() (error, bool) {
	if rt.abort.isSet() {
		return rt.abortCause, true
	}
	return nil, false
}

func (rt *Runtime) abortErr() error { return &AbortError{Cause: rt.abortCause} }

// Run launches fn on every rank as its own goroutine and waits for all of
// them. The returned error joins all per-rank errors except AbortErrors
// (an aborted run unwinding is expected termination).
func (rt *Runtime) Run(fn func(c *Comm) error) error {
	ranks := make([]int, rt.size)
	for r := range ranks {
		ranks[r] = r
	}
	return rt.RunLocal(ranks, fn)
}

// RunLocal is Run restricted to the given rank subset: it launches fn only
// on those ranks and waits for them. The multi-process net fabric uses it —
// each process runs the ranks it hosts, with the remaining slots driven by
// peers over the wire.
func (rt *Runtime) RunLocal(ranks []int, fn func(c *Comm) error) error {
	errs := make([]error, rt.size)
	var wg sync.WaitGroup
	wg.Add(len(ranks))
	for _, r := range ranks {
		c := newComm(rt, rt.nodeAt(r))
		go func(r int, c *Comm) {
			defer wg.Done()
			defer func() {
				// A panicking rank must not take the whole process down
				// (the runtime may be embedded in a long-lived service).
				// Abort the run so peers blocked on this rank's
				// communication unwind instead of deadlocking.
				if p := recover(); p != nil {
					// Keep the stack: with the process surviving, this
					// error is the only diagnostic of the crash site.
					err := fmt.Errorf("cluster: rank %d panicked: %v\n%s", r, p, debug.Stack())
					errs[r] = err
					rt.Abort(err)
				}
			}()
			errs[r] = fn(c)
		}(r, c)
	}
	wg.Wait()
	var agg []error
	for r, err := range errs {
		if err != nil && !errors.Is(err, ErrAborted) {
			agg = append(agg, fmt.Errorf("rank %d: %w", r, err))
		}
	}
	return errors.Join(agg...)
}

// RunContext is Run with cancellation: when ctx is cancelled before the SPMD
// program completes, the runtime is aborted (all blocked communication wakes
// with an AbortError) and RunContext returns the context's cause. Ranks still
// observe the abort through their communication calls and must unwind; a
// rank that ignores errors can still stall the return, so SPMD programs
// should propagate communication errors promptly.
func (rt *Runtime) RunContext(ctx context.Context, fn func(c *Comm) error) error {
	ranks := make([]int, rt.size)
	for r := range ranks {
		ranks[r] = r
	}
	return rt.RunLocalContext(ctx, ranks, fn)
}

// RunLocalContext is RunLocal with the cancellation semantics of RunContext.
func (rt *Runtime) RunLocalContext(ctx context.Context, ranks []int, fn func(c *Comm) error) error {
	if ctx == nil {
		return rt.RunLocal(ranks, fn)
	}
	watcherDone := make(chan struct{})
	ranksDone := make(chan struct{})
	go func() {
		defer close(watcherDone)
		select {
		case <-ctx.Done():
			rt.Abort(context.Cause(ctx))
		case <-ranksDone:
		}
	}()
	err := rt.RunLocal(ranks, fn)
	close(ranksDone)
	<-watcherDone
	if cause, ok := rt.Aborted(); ok && cause != nil {
		return cause
	}
	if ctx.Err() != nil {
		// Ranks may all have observed the context themselves (e.g. via a
		// solver's poll) and unwound before the watcher aborted the runtime;
		// return the clean cause rather than a join of per-rank errors.
		return context.Cause(ctx)
	}
	return err
}

// Comm is a per-rank communicator handle. It must only be used from the
// goroutine of its rank.
type Comm struct {
	rt   *Runtime
	rank int
	node *node
	// pending[from] holds what was taken from the mailbox but not yet
	// matched, in arrival order; Recv scans its source's list for the first
	// tag match. Lock-step SPMD keeps the lists a few entries deep, where a
	// scan beats a (from, tag)-keyed map, and they keep their capacity, so
	// filing a message allocates nothing in steady state.
	pending [][]Msg
	spare   []Msg // the emptied batch Recv swaps in for the mailbox's queue
}

func newComm(rt *Runtime, nd *node) *Comm {
	return &Comm{rt: rt, rank: nd.rank, node: nd, pending: make([][]Msg, rt.size)}
}

// Rank returns this rank's id.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.rt.size }

// Check returns an AbortError if the runtime has been aborted. SPMD programs
// call it at cancellation points (top of iterations).
func (c *Comm) Check() error {
	if c.rt.abort.isSet() {
		return c.rt.abortErr()
	}
	return nil
}

// GetFloats returns a payload buffer of length n from the transport's
// recycler (a plain allocation on transports without one). Intended for
// building payloads that are then handed off with SendOwned.
func (c *Comm) GetFloats(n int) []float64 { return c.rt.transport.GetFloats(c.rank, n) }

// PutFloats returns a buffer to the transport's recycler. Only the
// exclusive owner may call it, and must not touch the buffer afterwards.
func (c *Comm) PutFloats(buf []float64) { c.rt.transport.PutFloats(c.rank, buf) }

// Recycle returns a received message's float payload to the transport's
// recycler. Only the exclusive owner of the message may call it, and only
// when nothing retains references into the payload.
func (c *Comm) Recycle(m Msg) {
	if m.F != nil {
		c.rt.transport.PutFloats(c.rank, m.F)
	}
}

// send is the shared path of Send/SendOwned: validate, then hand off to the
// runtime's transport.
func (c *Comm) send(cat Category, to, tag int, f []float64, ints []int, own bool) error {
	if to < 0 || to >= c.rt.size {
		return fmt.Errorf("cluster: Send to invalid rank %d", to)
	}
	if err := c.Check(); err != nil {
		return err
	}
	dst := c.rt.nodeAt(to)
	if dst.failed.isSet() {
		return &RankFailedError{Rank: to}
	}
	if err := c.rt.transport.Deliver(dst, Msg{From: c.rank, Tag: tag, F: f, I: ints}, own); err != nil {
		return err
	}
	c.rt.counters.shards[c.rank].record(cat, 1, len(f))
	return nil
}

// Reclassify moves a number of float-element counts this rank recorded from
// one category to another. The SpMV path uses it to account redundancy
// elements that piggyback on halo messages under CatRedundancy without
// double-counting the message itself.
func (c *Comm) Reclassify(from, to Category, floats int64) {
	c.rt.counters.shards[c.rank].reclassify(from, to, floats)
}

// RecordStorage books one message of floats elements that this rank moved
// outside the fabric — a save to or a restore from simulated reliable
// storage — under cat, on the rank's own counter shard.
func (c *Comm) RecordStorage(cat Category, floats int) {
	c.rt.counters.shards[c.rank].record(cat, 1, floats)
}

// Send delivers a message to rank `to` with the given tag, accounting it
// under category cat. Payload slices are copied (on every transport), so
// the caller may reuse its buffers immediately. Send fails with
// RankFailedError if the destination has failed.
func (c *Comm) Send(cat Category, to, tag int, f []float64, ints []int) error {
	return c.send(cat, to, tag, f, ints, false)
}

// Recv blocks until a message from rank `from` with the given tag is
// available and returns it. Matching is FIFO per (from, tag). Recv fails
// with RankFailedError if the source fails before a matching message
// arrives.
//
// Recv swaps the mailbox's whole queue out and matches outside the lock:
// the first (from, tag) match is the result, the rest is filed under
// pending in arrival order. Only on an empty mailbox does it look at the
// failure and abort latches, and park — so whatever the source managed to
// send before it failed is drained first.
func (c *Comm) Recv(from, tag int) (Msg, error) {
	if from < 0 || from >= c.rt.size {
		return Msg{}, fmt.Errorf("cluster: Recv from invalid rank %d", from)
	}
	q := c.pending[from]
	for i := range q {
		if q[i].Tag == tag {
			m := q[i]
			copy(q[i:], q[i+1:])
			q[len(q)-1] = Msg{} // drop the payload reference
			c.pending[from] = q[:len(q)-1]
			return m, nil
		}
	}
	nd, src := c.node, c.rt.nodeAt(from)
	for {
		nd.mu.Lock()
		for len(nd.queue) == 0 {
			// Under mu: the wake that follows a later trip cannot slip in
			// before Wait has enlisted us.
			err := c.Check()
			if err == nil && src.failed.isSet() {
				err = &RankFailedError{Rank: from}
			}
			if err != nil {
				nd.mu.Unlock()
				return Msg{}, err
			}
			nd.parked = true
			nd.cond.Wait()
			nd.parked = false
		}
		batch := nd.queue
		nd.queue = c.spare
		nd.mu.Unlock()

		var match Msg
		found := false
		for _, m := range batch {
			if !found && m.From == from && m.Tag == tag {
				match, found = m, true
				continue
			}
			c.pending[m.From] = append(c.pending[m.From], m)
		}
		clear(batch) // drop the payload references
		c.spare = batch[:0]
		if found {
			return match, nil
		}
	}
}

// SendOwned is Send without the defensive payload copy: the caller
// relinquishes ownership of the slices (it must not read or write them
// afterwards, whether or not the call succeeds). The hot SpMV and
// collective paths use it for freshly built payloads — combined with
// GetFloats/Recycle on a pooled transport, the steady-state loop sends
// without allocating.
func (c *Comm) SendOwned(cat Category, to, tag int, f []float64, ints []int) error {
	return c.send(cat, to, tag, f, ints, true)
}

// SendFloats is shorthand for Send with only a float payload.
func (c *Comm) SendFloats(cat Category, to, tag int, f []float64) error {
	return c.Send(cat, to, tag, f, nil)
}

// RecvFloats receives a message and returns only its float payload.
func (c *Comm) RecvFloats(from, tag int) ([]float64, error) {
	m, err := c.Recv(from, tag)
	if err != nil {
		return nil, err
	}
	return m.F, nil
}
