package cluster

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// NetPeer describes one process of a multi-process cluster: its data
// listener address and the ranks it hosts.
type NetPeer struct {
	// Addr is the peer's data listener address ("host:port").
	Addr string
	// Ranks are the rank slots hosted by the peer's process.
	Ranks []int
}

// NetConfig parameterizes a NetTransport.
//
// The zero value selects single-process self-loop mode: the transport binds
// a loopback listener and routes every rank-to-rank message of its runtime
// through a real TCP connection to itself. That is what the engine uses for
// Config.Transport = "net" inside one process — same sockets, same framing,
// same failure semantics as a multi-process fleet, which is what lets the
// transport conformance suite and the bit-identity tests run it unchanged.
//
// Multi-process mesh mode (internal/netrun) fills in Peers: one entry per
// process, each hosting a disjoint subset of ranks, with Self naming this
// process's entry. Every ordered process pair gets its own persistent
// connection (a single writer per direction, so per-(source, tag) delivery
// order on the wire matches send order), and each process also keeps a
// self-wire to its own listener so ordering guarantees are uniform.
//
// Dial timing is fixed: dialTimeout bounds a connection attempt and
// retryInterval paces redials.
type NetConfig struct {
	// RunID identifies the job; the handshake rejects connections from a
	// different run. Empty selects "local".
	RunID string
	// Self indexes this process's entry in Peers.
	Self int
	// Peers lists every process of the cluster. Empty selects self-loop
	// mode: one peer (this process) hosting every rank.
	Peers []NetPeer
	// Listener, when non-nil, is the pre-bound data listener for Self
	// (bind-then-report is how workers advertise their address before the
	// cluster exists). Nil binds a fresh loopback listener.
	Listener net.Listener
	// Replaceable lists ranks whose process death must NOT be surfaced as a
	// rank failure: they are scheduled failure victims whose replacement
	// process will reconnect and resume, so sends to them block until the
	// replacement's connection (at a higher incarnation) is up. Ranks not
	// listed here are fail-stop: a lost connection fails them for real.
	Replaceable []int
	// Incarnation is this process's own spawn generation (0 for the
	// original worker, bumped by the coordinator for each replacement). It
	// is what the handshake advertises, and what lets survivors tell a
	// replacement apart from the dying process it replaces.
	Incarnation int
}

const (
	// dialTimeout bounds one connection attempt, handshake included.
	dialTimeout = 10 * time.Second
	// retryInterval paces reconnection attempts to an unreachable peer (a
	// dead scheduled victim, until its replacement binds).
	retryInterval = 20 * time.Millisecond
)

// netConn is one established, handshaken connection to a peer.
type netConn struct {
	conn        net.Conn
	incarnation int // the remote process's advertised incarnation
}

// netPeerState is the transport's view of one peer process.
type netPeerState struct {
	idx   int
	addr  string
	ranks []int
	// incarnation is the highest spawn generation known for the peer
	// (updated by SetPeerAddr when the coordinator announces a
	// replacement).
	incarnation int
	// required is the minimum incarnation Deliver accepts: bumped past the
	// current one when a scheduled death is announced, so recovery traffic
	// can never be written into the dying process's doomed socket buffers.
	required int
	// out is the established outbound connection (nil while down).
	out *netConn
	// wmu serializes writes on the outbound connection, which is what
	// preserves wire FIFO per (source, tag).
	wmu sync.Mutex
	// inbound tracks accepted connections from this peer and the
	// incarnation each one handshook with, so teardown decisions can
	// distinguish a dying process's connections from its replacement's.
	inbound map[net.Conn]int
	// stale holds orphaned connections to a superseded incarnation. They
	// are deliberately NOT closed while the old process may still be
	// alive: closing a connection at a pre-poll-point victim would make it
	// observe an EOF from a non-replaceable peer, fail that peer's rank
	// locally, and abort mid-iteration — destroying in-flight frames that
	// slower survivors still need. They are reaped once the old process's
	// death is actually observed, or at teardown.
	stale []*netConn
}

// NetTransport is the TCP fabric: ranks hosted across OS processes (or one
// process in self-loop mode) exchanging length-prefixed binary frames over
// persistent peer connections. Delivery semantics match the in-process
// fabrics — matching still lives above the transport in Comm, per-wire
// writes are serialized so (source, tag) streams stay FIFO, and payloads
// travel as raw float64 bits — so a deterministic SPMD program produces
// bit-identical results over real sockets.
//
// Failure semantics: a peer connection that closes or resets is a real
// process death, and the ranks it hosted fail (node.fail) — unless they are
// scheduled Replaceable victims, in which case the transport waits for the
// replacement process to reconnect at a higher incarnation. The end of an
// inbound connection is read behind every frame it carried, so receivers
// drain a dead peer's in-flight messages before they observe its failure.
//
// Encode and decode buffers come from the in-process fabric's process-wide
// size-class recycler, so the steady-state wire loop allocates only in
// the kernel.
type NetTransport struct {
	cfg NetConfig
	ct  transportCounters

	bytesSent  atomic.Int64
	bytesRecv  atomic.Int64
	reconnects atomic.Int64

	rt *Runtime
	ln net.Listener

	mu          sync.Mutex
	peers       []*netPeerState
	rankPeer    map[int]int
	replaceable map[int]bool
	changed     chan struct{} // closed+replaced on every connection-state change
	startErr    error

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// NewNetTransport builds the TCP transport. The configuration is validated
// lazily when the runtime binds the transport (cluster.New), because
// self-loop mode needs the runtime's size to lay out its single peer.
func NewNetTransport(cfg NetConfig) *NetTransport {
	if cfg.RunID == "" {
		cfg.RunID = "local"
	}
	return &NetTransport{
		cfg:         cfg,
		rankPeer:    map[int]int{},
		replaceable: map[int]bool{},
		changed:     make(chan struct{}),
		closed:      make(chan struct{}),
	}
}

// Name implements Transport.
func (t *NetTransport) Name() string { return TransportNet }

// GetFloats implements Transport: the in-process fabric's shared recycler.
func (t *NetTransport) GetFloats(rank, n int) []float64 { return poolGetFloats(t.ct.rank(rank), n) }

// PutFloats implements Transport.
func (t *NetTransport) PutFloats(rank int, buf []float64) { poolPutFloats(t.ct.rank(rank), buf) }

// Stats implements Transport.
func (t *NetTransport) Stats() TransportStats {
	s := t.ct.snapshot()
	s.BytesSent = t.bytesSent.Load()
	s.BytesReceived = t.bytesRecv.Load()
	s.Reconnects = t.reconnects.Load()
	return s
}

// Addr returns the bound data listener address (empty before the runtime
// binds the transport).
func (t *NetTransport) Addr() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ln == nil {
		return ""
	}
	return t.ln.Addr().String()
}

// LivePeers counts peers with an established outbound connection.
func (t *NetTransport) LivePeers() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, p := range t.peers {
		if p.out != nil {
			n++
		}
	}
	return n
}

// bindRuntime wires the transport to its runtime (cluster.New calls it via
// the runtimeBinder hook): validate the peer layout, bind the listener, and
// start the accept and dial loops. Setup failures are latched into startErr
// and surfaced by the first communication operation, since New has no error
// return.
func (t *NetTransport) bindRuntime(rt *Runtime) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.rt != nil {
		panic("cluster: NetTransport bound to a second runtime")
	}
	t.rt = rt
	if err := t.start(rt); err != nil {
		t.startErr = fmt.Errorf("cluster: net transport setup: %w", err)
	}
}

// start is the bindRuntime body; t.mu is held.
func (t *NetTransport) start(rt *Runtime) error {
	cfg := &t.cfg
	t.ln = cfg.Listener
	if t.ln == nil {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		t.ln = ln
	}
	if len(cfg.Peers) == 0 {
		// Self-loop mode: this process hosts every rank.
		ranks := make([]int, rt.Size())
		for i := range ranks {
			ranks[i] = i
		}
		cfg.Peers = []NetPeer{{Addr: t.ln.Addr().String(), Ranks: ranks}}
		cfg.Self = 0
	}
	if cfg.Self < 0 || cfg.Self >= len(cfg.Peers) {
		return fmt.Errorf("self index %d out of range for %d peers", cfg.Self, len(cfg.Peers))
	}
	seen := make(map[int]bool, rt.Size())
	t.peers = make([]*netPeerState, len(cfg.Peers))
	for i, pc := range cfg.Peers {
		t.peers[i] = &netPeerState{
			idx: i, addr: pc.Addr, ranks: pc.Ranks, inbound: map[net.Conn]int{},
		}
		for _, r := range pc.Ranks {
			if r < 0 || r >= rt.Size() || seen[r] {
				return fmt.Errorf("rank %d of peer %d invalid or duplicated", r, i)
			}
			seen[r] = true
			t.rankPeer[r] = i
		}
	}
	if len(seen) != rt.Size() {
		return fmt.Errorf("peers host %d ranks, runtime has %d", len(seen), rt.Size())
	}
	for _, r := range cfg.Replaceable {
		t.replaceable[r] = true
	}
	t.wg.Add(1)
	go t.acceptLoop()
	for _, p := range t.peers {
		t.wg.Add(1)
		go t.dialLoop(p)
	}
	// An abort must unwedge writers blocked in the kernel: close every
	// connection so in-flight Writes error out and Deliver unwinds.
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		select {
		case <-rt.abort.ch:
			t.teardownConns()
		case <-t.closed:
		}
	}()
	return nil
}

// signal wakes everyone waiting on connection state; t.mu must be held.
func (t *NetTransport) signal() {
	close(t.changed)
	t.changed = make(chan struct{})
}

// Close implements io.Closer: tear down the listener and every connection
// and wait for the transport's goroutines. Safe to call more than once.
func (t *NetTransport) Close() error {
	t.closeOnce.Do(func() {
		close(t.closed)
		t.mu.Lock()
		if t.ln != nil {
			t.ln.Close()
		}
		t.signal()
		t.mu.Unlock()
		t.teardownConns()
	})
	t.wg.Wait()
	return nil
}

// teardownConns closes every established connection (abort/close path).
func (t *NetTransport) teardownConns() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, p := range t.peers {
		if p.out != nil {
			p.out.conn.Close()
			p.out = nil
		}
		for c := range p.inbound {
			c.Close()
		}
		for _, sc := range p.stale {
			sc.conn.Close()
		}
		p.stale = nil
	}
	t.signal()
}

// isClosed reports whether Close has begun.
func (t *NetTransport) isClosed() bool {
	select {
	case <-t.closed:
		return true
	default:
		return false
	}
}

// acceptLoop admits inbound peer connections: handshake, then a reader
// goroutine per connection.
func (t *NetTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.wg.Add(1)
		go t.handleInbound(c)
	}
}

// handleInbound validates a new inbound connection's hello and runs its
// read loop.
func (t *NetTransport) handleInbound(c net.Conn) {
	defer t.wg.Done()
	c.SetReadDeadline(time.Now().Add(dialTimeout))
	fr, err := readNetFrame(c, t)
	if err != nil || fr.typ != netFrameHello || fr.runID != t.cfg.RunID ||
		fr.peer < 0 || fr.peer >= len(t.peers) {
		c.Close()
		return
	}
	c.SetReadDeadline(time.Time{})
	ack, err := encodeControlFrame(netFrame{typ: netFrameAck, incarnation: t.cfg.Incarnation})
	if err != nil {
		c.Close()
		return
	}
	if _, err := c.Write(ack); err != nil {
		c.Close()
		return
	}
	p := t.peers[fr.peer]
	t.mu.Lock()
	if t.isClosed() {
		t.mu.Unlock()
		c.Close()
		return
	}
	p.inbound[c] = fr.incarnation
	if fr.incarnation > p.incarnation {
		p.incarnation = fr.incarnation
	}
	t.mu.Unlock()
	t.readLoop(p, c)
}

// readLoop decodes data frames off one inbound connection and appends them
// synchronously to local mailboxes, in order, so wire order is mailbox
// order. The mailbox is unbounded, so this loop never stalls on a slow
// receiver and TCP back-pressure no longer reaches the sender; what keeps
// a mailbox shallow is the SPMD programs' lock-step (see node).
func (t *NetTransport) readLoop(p *netPeerState, c net.Conn) {
	rt := t.rt
	for {
		fr, err := readNetFrame(c, t)
		if err != nil {
			t.inboundGone(p, c)
			return
		}
		switch fr.typ {
		case netFrameData:
			if fr.to < 0 || fr.to >= rt.Size() ||
				fr.msg.From < 0 || fr.msg.From >= rt.Size() {
				t.inboundGone(p, c)
				return
			}
			t.bytesRecv.Add(int64(5 + netDataHeader + 8*len(fr.msg.F) + 8*len(fr.msg.I)))
			if rt.nodeAt(fr.to).put(fr.msg) == nil {
				t.ct.rank(fr.msg.From).delivered.Add(1)
			} else {
				t.dropFrame(fr)
			}
		default:
			// Stray handshake frames mid-stream are a protocol violation.
			t.inboundGone(p, c)
			return
		}
	}
}

// dropFrame discards an undeliverable data frame's payload to the recycler.
func (t *NetTransport) dropFrame(fr netFrame) {
	t.ct.dropped.Add(1)
	if fr.msg.F != nil {
		t.PutFloats(-1, fr.msg.F)
	}
}

// inboundGone handles the end of an inbound connection: expected during
// shutdown and replacement handovers; otherwise it is the fail-stop signal
// for every non-replaceable rank the peer hosts. For replaceable ranks
// (scheduled victims) nothing is raised — their replacement process will
// reconnect — but the outbound side of the SAME generation is torn down so
// no further write lands in the dead process's socket buffers. The
// incarnation guard matters: a late EOF from the old generation's
// connection must never sever an already-installed replacement connection.
// A conn death also proves the old process is gone, so orphaned stale
// connections to it are reaped here.
func (t *NetTransport) inboundGone(p *netPeerState, c net.Conn) {
	c.Close()
	t.mu.Lock()
	deadInc := p.inbound[c]
	delete(p.inbound, c)
	closed := t.isClosed()
	_, aborted := t.rt.Aborted()
	hasReplaceable := false
	for _, r := range p.ranks {
		if t.replaceable[r] {
			hasReplaceable = true
		}
	}
	var killOut *netConn
	if hasReplaceable && p.out != nil && p.out.incarnation <= deadInc && !closed {
		killOut = p.out
		p.out = nil
		t.signal()
	}
	var reap, keep []*netConn
	for _, sc := range p.stale {
		if sc.incarnation <= deadInc {
			reap = append(reap, sc)
		} else {
			keep = append(keep, sc)
		}
	}
	p.stale = keep
	t.mu.Unlock()
	if killOut != nil {
		killOut.conn.Close()
	}
	for _, sc := range reap {
		sc.conn.Close()
	}
	if closed || aborted {
		return
	}
	for _, r := range p.ranks {
		if !t.replaceable[r] {
			t.rt.nodeAt(r).fail()
		}
	}
}

// dialLoop maintains the outbound connection to p: dial, handshake, verify
// the remote incarnation satisfies the required minimum, install. It wakes
// on every state change and retries on a short interval while the peer is
// unreachable (a dead scheduled victim, until its replacement binds).
//
// A handshake that answers with an insufficient incarnation is the old,
// possibly still-running process of a scheduled victim. Its connection is
// orphaned — never closed — because closing it would make the victim
// observe this survivor's "death" and abort before its own poll point.
// Its address can never satisfy the requirement (a process's incarnation
// is fixed at spawn), so the loop waits for a state change (the
// coordinator's replacement announcement) instead of redialing it.
func (t *NetTransport) dialLoop(p *netPeerState) {
	defer t.wg.Done()
	everUp := false
	badAddr := ""
	for {
		t.mu.Lock()
		for !t.isClosed() &&
			((p.out != nil && p.out.incarnation >= p.required) || p.addr == badAddr) {
			ch := t.changed
			t.mu.Unlock()
			select {
			case <-ch:
			case <-t.closed:
			}
			t.mu.Lock()
		}
		if t.isClosed() {
			t.mu.Unlock()
			return
		}
		addr := p.addr
		t.mu.Unlock()

		nc, err := t.dialOnce(addr)
		if err != nil {
			select {
			case <-time.After(retryInterval):
				continue
			case <-t.closed:
				return
			}
		}
		t.mu.Lock()
		if t.isClosed() {
			t.mu.Unlock()
			nc.conn.Close()
			return
		}
		if nc.incarnation < p.required {
			p.stale = append(p.stale, nc)
			badAddr = addr
			t.mu.Unlock()
			continue
		}
		if p.out != nil {
			// Superseded while we were dialing; orphan rather than close —
			// its process may still be alive and mid-iteration.
			p.stale = append(p.stale, p.out)
		}
		p.out = nc
		badAddr = ""
		if nc.incarnation > p.incarnation {
			p.incarnation = nc.incarnation
		}
		if everUp {
			t.reconnects.Add(1)
		}
		everUp = true
		t.signal()
		t.mu.Unlock()
	}
}

// dialOnce performs one dial + hello/ack handshake against addr and returns
// the connection with whatever incarnation the remote advertises; the
// caller decides whether it is acceptable.
func (t *NetTransport) dialOnce(addr string) (*netConn, error) {
	c, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	hello, err := encodeControlFrame(netFrame{
		typ: netFrameHello, peer: t.cfg.Self,
		incarnation: t.cfg.Incarnation, runID: t.cfg.RunID,
	})
	if err != nil {
		c.Close()
		return nil, err
	}
	c.SetDeadline(time.Now().Add(dialTimeout))
	if _, err := c.Write(hello); err != nil {
		c.Close()
		return nil, err
	}
	fr, err := readNetFrame(c, t)
	if err != nil || fr.typ != netFrameAck {
		c.Close()
		return nil, fmt.Errorf("handshake with %s failed: %v", addr, err)
	}
	c.SetDeadline(time.Time{})
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return &netConn{conn: c, incarnation: fr.incarnation}, nil
}

// SetPeerAddr records a peer's new data listener address and incarnation
// (the coordinator's replacement announcement) and kicks the dial loop.
func (t *NetTransport) SetPeerAddr(rank int, addr string, incarnation int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	pi, ok := t.rankPeer[rank]
	if !ok {
		return
	}
	p := t.peers[pi]
	p.addr = addr
	if incarnation > p.incarnation {
		p.incarnation = incarnation
	}
	t.signal()
}

// ExpectReplacement is called at the solver's failure point when ranks'
// processes die on schedule. required maps each victim rank to the
// incarnation its replacement will run at (derivable from the schedule:
// the number of events at or before the current iteration that kill the
// rank). It raises each hosting peer's required incarnation, so every
// subsequent send to those ranks blocks until the replacement process has
// handshaken — never landing in the dying process's socket buffers.
//
// Crucially it closes NOTHING. The victim may not have reached its own
// poll point yet: closing a connection it still holds would make it see an
// EOF from a peer it considers non-replaceable, declare that peer dead,
// and abort mid-iteration — losing frames that slower survivors have not
// yet consumed. The current outbound connection is merely orphaned (new
// sends are gated by the required incarnation) and reaped once the old
// process's death is observed. The explicit incarnation, rather than
// "current + 1", keeps the requirement correct even when the replacement's
// connection has already arrived and bumped the peer's known incarnation
// before this survivor reached its poll point.
func (t *NetTransport) ExpectReplacement(required map[int]int) {
	t.mu.Lock()
	for r, req := range required {
		pi, ok := t.rankPeer[r]
		if !ok || pi == t.cfg.Self {
			continue
		}
		p := t.peers[pi]
		t.replaceable[r] = true
		if req > p.required {
			p.required = req
		}
		if p.out != nil && p.out.incarnation < p.required {
			p.stale = append(p.stale, p.out)
			p.out = nil
		}
	}
	t.signal()
	t.mu.Unlock()
}

// outConnFor waits for an acceptable outbound connection to dst's peer,
// unwinding on abort, dst's failure, closure, or a setup error.
func (t *NetTransport) outConnFor(rt *Runtime, dst *node) (*netPeerState, *netConn, error) {
	t.mu.Lock()
	for {
		if t.startErr != nil {
			err := t.startErr
			t.mu.Unlock()
			return nil, nil, err
		}
		if t.isClosed() {
			t.mu.Unlock()
			return nil, nil, fmt.Errorf("cluster: net transport closed")
		}
		p := t.peers[t.rankPeer[dst.rank]]
		if p.out != nil && p.out.incarnation >= p.required {
			out := p.out
			t.mu.Unlock()
			return p, out, nil
		}
		ch := t.changed
		t.mu.Unlock()
		select {
		case <-ch:
		case <-rt.abort.ch:
			return nil, nil, rt.abortErr()
		case <-dst.failed.ch:
			return nil, nil, &RankFailedError{Rank: dst.rank}
		case <-t.closed:
			return nil, nil, fmt.Errorf("cluster: net transport closed")
		}
		t.mu.Lock()
	}
}

// connBroken reports a failed write on out: tear the connection down so the
// dial loop replaces it.
func (t *NetTransport) connBroken(p *netPeerState, out *netConn) {
	t.mu.Lock()
	if p.out == out {
		p.out = nil
		t.signal()
	}
	t.mu.Unlock()
	out.conn.Close()
}

// Deliver implements Transport: serialize the message and write it on the
// destination peer's wire. Sends to replaceable ranks ride out connection
// loss by waiting for the replacement process and retrying; sends to anyone
// else surface a lost connection as the rank's failure.
//
// Each frame is pinned to the destination incarnation it was addressed to
// (the peer's required incarnation when the send began). If the available
// connection ever points at a NEWER incarnation, the addressee died before
// reading this frame; it is dropped rather than written. A scheduled victim
// consumes everything it needs before its poll point, so the drop is
// harmless — whereas writing the frame to the replacement would
// double-deliver it (the replacement re-receives the same logical sends
// when the redo pass after recovery replays them), shifting its
// per-(source,tag) stream off by one.
func (t *NetTransport) Deliver(dst *node, m Msg, own bool) error {
	rt := t.rt
	wire, backing, err := encodeDataFrame(t, dst.rank, m)
	if own && m.F != nil {
		// Ownership transferred to the transport; the payload now lives in
		// the wire buffer, so the original goes straight back to the pool.
		t.PutFloats(m.From, m.F)
	}
	if err != nil {
		return err
	}
	defer t.PutFloats(m.From, backing)
	if !own {
		t.ct.copied.Add(1) // the wire serialization is the defensive copy
	}
	epoch := -1
	for {
		p, out, err := t.outConnFor(rt, dst)
		if err != nil {
			return err
		}
		if epoch < 0 {
			// Sends and ExpectReplacement both run on the sender's solver
			// goroutine, so the epoch observed on the first pass is the one
			// the frame was addressed under.
			t.mu.Lock()
			epoch = p.required
			t.mu.Unlock()
		}
		if out.incarnation > epoch {
			t.ct.dropped.Add(1)
			return nil
		}
		p.wmu.Lock()
		_, werr := out.conn.Write(wire)
		p.wmu.Unlock()
		if werr == nil {
			t.bytesSent.Add(int64(len(wire)))
			return nil
		}
		t.connBroken(p, out)
		if !t.replaceable[dst.rank] {
			if _, aborted := rt.Aborted(); aborted {
				return rt.abortErr()
			}
			if t.isClosed() {
				return fmt.Errorf("cluster: net transport closed")
			}
			dst.fail()
			return &RankFailedError{Rank: dst.rank}
		}
	}
}
