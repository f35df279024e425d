package cluster

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"testing"
	"time"
)

// closeNet tears down a test's net transport so loopback listeners don't
// pile up across cases.
func closeNet(t *testing.T, tr Transport) {
	t.Helper()
	if nt, ok := tr.(*NetTransport); ok {
		if err := nt.Close(); err != nil {
			t.Errorf("net transport close: %v", err)
		}
	}
}

// TestQuickNetSelfLoop: the zero-value config routes a whole runtime
// through one loopback listener, and the byte counters see real traffic.
func TestQuickNetSelfLoop(t *testing.T) {
	tr := NewNetTransport(NetConfig{})
	defer closeNet(t, tr)
	rt := New(4, WithTransport(tr))
	if tr.Addr() == "" {
		t.Fatal("listener address empty after bind")
	}
	err := rt.Run(func(c *Comm) error {
		out, err := c.World().AllreduceScalar(OpSum, float64(c.Rank()+1))
		if err != nil {
			return err
		}
		if out != 10 {
			return fmt.Errorf("allreduce over TCP: got %v, want 10", out)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := tr.Stats()
	if s.BytesSent == 0 || s.BytesReceived == 0 || s.Delivered == 0 {
		t.Fatalf("no wire traffic recorded: %+v", s)
	}
	if tr.LivePeers() != 1 {
		t.Fatalf("self-loop should have 1 live peer, got %d", tr.LivePeers())
	}
}

// TestQuickNetRunIDMismatch: a peer from a different run is rejected at the
// handshake, never admitted into the mesh.
func TestQuickNetRunIDMismatch(t *testing.T) {
	tr := NewNetTransport(NetConfig{RunID: "run-a"})
	defer closeNet(t, tr)
	_ = New(2, WithTransport(tr))

	c, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hello, err := encodeControlFrame(netFrame{typ: netFrameHello, peer: 0, runID: "run-b"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(hello); err != nil {
		t.Fatal(err)
	}
	// The transport must hang up without acking.
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	var buf [1]byte
	if _, err := c.Read(buf[:]); err == nil {
		t.Fatal("mismatched runID was acked")
	}
}

// TestQuickNetGarbageConnection: a connection speaking garbage instead of a
// hello is dropped without disturbing the runtime.
func TestQuickNetGarbageConnection(t *testing.T) {
	tr := NewNetTransport(NetConfig{})
	defer closeNet(t, tr)
	rt := New(2, WithTransport(tr))

	c, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
	c.Close()

	err = rt.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return c.SendFloats(CatOther, 1, 1, []float64{42})
		}
		f, err := c.RecvFloats(0, 1)
		if err != nil {
			return err
		}
		if f[0] != 42 {
			return fmt.Errorf("got %v", f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestQuickNetMesh: two processes' worth of transports in one test binary —
// separate listeners, ranks split across them, collectives and
// point-to-point crossing the process boundary. RunLocal drives each half.
func TestQuickNetMesh(t *testing.T) {
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peers := []NetPeer{
		{Addr: lnA.Addr().String(), Ranks: []int{0, 1}},
		{Addr: lnB.Addr().String(), Ranks: []int{2, 3}},
	}
	trA := NewNetTransport(NetConfig{RunID: "mesh", Self: 0, Peers: peers, Listener: lnA})
	trB := NewNetTransport(NetConfig{RunID: "mesh", Self: 1, Peers: peers, Listener: lnB})
	defer closeNet(t, trA)
	defer closeNet(t, trB)
	rtA := New(4, WithTransport(trA))
	rtB := New(4, WithTransport(trB))

	prog := func(c *Comm) error {
		out, err := c.World().AllreduceScalar(OpSum, math.Sqrt(float64(c.Rank())+0.5))
		if err != nil {
			return err
		}
		want := math.Sqrt(0.5) + math.Sqrt(1.5)
		want += math.Sqrt(2.5)
		want += math.Sqrt(3.5)
		_ = want // tree order decides the bits; cross-check across the mesh instead
		if c.Rank() == 3 {
			return c.SendFloats(CatOther, 0, 77, []float64{out})
		}
		if c.Rank() == 0 {
			f, err := c.RecvFloats(3, 77)
			if err != nil {
				return err
			}
			if f[0] != out {
				return fmt.Errorf("allreduce disagrees across processes: %v vs %v", f[0], out)
			}
		}
		return nil
	}
	errA := make(chan error, 1)
	go func() { errA <- rtA.RunLocal([]int{0, 1}, prog) }()
	if err := rtB.RunLocal([]int{2, 3}, prog); err != nil {
		t.Fatal(err)
	}
	if err := <-errA; err != nil {
		t.Fatal(err)
	}
}

// TestQuickNetMeshPeerLoss: a peer process vanishing (connection loss, the
// real fail-stop case) fails the ranks it hosted.
func TestQuickNetMeshPeerLoss(t *testing.T) {
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peers := []NetPeer{
		{Addr: lnA.Addr().String(), Ranks: []int{0}},
		{Addr: lnB.Addr().String(), Ranks: []int{1}},
	}
	trA := NewNetTransport(NetConfig{RunID: "loss", Self: 0, Peers: peers, Listener: lnA})
	trB := NewNetTransport(NetConfig{RunID: "loss", Self: 1, Peers: peers, Listener: lnB})
	defer closeNet(t, trA)
	rtA := New(2, WithTransport(trA))
	rtB := New(2, WithTransport(trB))

	// Bring the mesh up, then drop peer B like a dead process would: closed
	// sockets.
	sync := make(chan error, 1)
	go func() {
		sync <- rtB.RunLocal([]int{1}, func(c *Comm) error {
			return c.SendFloats(CatOther, 0, 1, []float64{1})
		})
	}()
	err = rtA.RunLocal([]int{0}, func(c *Comm) error {
		if _, err := c.RecvFloats(1, 1); err != nil {
			return err
		}
		if err := <-sync; err != nil {
			return err
		}
		closeNet(t, trB) // the "process" dies
		if _, err := c.Recv(1, 2); !rankFailed(err, 1) {
			return fmt.Errorf("want RankFailedError{1} after peer loss, got %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestQuickNetWireRoundTrip: data frames round-trip bit-exactly, including
// NaN payloads, signed zeros, and int payloads.
func TestQuickNetWireRoundTrip(t *testing.T) {
	tr := NewNetTransport(NetConfig{}) // unbound: used only as the buffer source
	defer closeNet(t, tr)
	payloads := []Msg{
		{From: 3, Tag: 42, F: []float64{1.5, math.NaN(), math.Inf(-1), math.Copysign(0, -1)}},
		{From: 0, Tag: 0, I: []int{-1, 0, 1 << 40}},
		{From: 7, Tag: 3<<20 + 11, F: []float64{0.1}, I: []int{5}},
		{From: 1, Tag: 9},
	}
	for _, m := range payloads {
		wire, backing, err := encodeDataFrame(tr, 2, m)
		if err != nil {
			t.Fatal(err)
		}
		fr, err := readNetFrame(bytes.NewReader(wire), tr)
		tr.PutFloats(-1, backing)
		if err != nil {
			t.Fatalf("decode %+v: %v", m, err)
		}
		if fr.typ != netFrameData || fr.to != 2 || fr.msg.From != m.From || fr.msg.Tag != m.Tag {
			t.Fatalf("header mangled: %+v -> %+v", m, fr)
		}
		if len(fr.msg.F) != len(m.F) || len(fr.msg.I) != len(m.I) {
			t.Fatalf("payload sizes mangled: %+v -> %+v", m, fr.msg)
		}
		for i := range m.F {
			if math.Float64bits(fr.msg.F[i]) != math.Float64bits(m.F[i]) {
				t.Fatalf("float %d not bit-identical: %x vs %x",
					i, math.Float64bits(fr.msg.F[i]), math.Float64bits(m.F[i]))
			}
		}
		for i := range m.I {
			if fr.msg.I[i] != m.I[i] {
				t.Fatalf("int %d mangled: %d vs %d", i, fr.msg.I[i], m.I[i])
			}
		}
	}
}

// TestQuickNetWireRejects: the decoder fails closed on malformed frames.
func TestQuickNetWireRejects(t *testing.T) {
	tr := NewNetTransport(NetConfig{})
	defer closeNet(t, tr)
	le := func(b []byte, off int, v uint32) {
		b[off], b[off+1], b[off+2], b[off+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	}
	cases := map[string][]byte{
		"empty":          {},
		"truncated hdr":  {1, 0},
		"unknown type":   {9, 4, 0, 0, 0, 1, 2, 3, 4},
		"oversized body": func() []byte { b := make([]byte, 5); b[0] = 1; le(b, 1, uint32(netMaxBody+1)); return b }(),
		"short data":     {1, 4, 0, 0, 0, 1, 2, 3, 4},
		"count mismatch": func() []byte {
			// Valid header sizes but nF disagrees with the body length.
			b := make([]byte, 5+netDataHeader)
			b[0] = 1
			le(b, 1, netDataHeader)
			le(b, 5+12, 100) // nF=100 with zero payload bytes
			return b
		}(),
		"huge count": func() []byte {
			b := make([]byte, 5+netDataHeader)
			b[0] = 1
			le(b, 1, netDataHeader)
			le(b, 5+12, uint32(netMaxElems+1))
			return b
		}(),
		"truncated floats": func() []byte {
			b := make([]byte, 5+netDataHeader+8)
			b[0] = 1
			le(b, 1, uint32(netDataHeader+16)) // promises 2 floats, delivers 1
			le(b, 5+12, 2)
			return b
		}(),
		"bad hello version": func() []byte {
			b := make([]byte, 5+14)
			b[0] = 2
			le(b, 1, 14)
			le(b, 5, 999)
			return b
		}(),
		"hello runid mismatch": func() []byte {
			b := make([]byte, 5+14)
			b[0] = 2
			le(b, 1, 14)
			le(b, 5, netWireVersion)
			b[5+12] = 200 // claims 200 runID bytes, body has 0
			return b
		}(),
		"short ack": {3, 2, 0, 0, 0, 1, 2},
		// Type 4 was a kill marker; no peer may send one any more.
		"retired type 4": {4, 4, 0, 0, 0, 2, 0, 0, 0},
	}
	for name, wire := range cases {
		if _, err := readNetFrame(bytes.NewReader(wire), tr); err == nil {
			t.Errorf("%s: decoder accepted a malformed frame", name)
		}
	}
}

// FuzzNetFrameDecode: the decoder must never panic or allocate past the
// element caps, whatever bytes arrive on the wire.
func FuzzNetFrameDecode(f *testing.F) {
	tr := NewNetTransport(NetConfig{})
	// Seed with valid frames of every type, a frame of the retired type 4,
	// and malformed ones.
	if wire, backing, err := encodeDataFrame(tr, 1, Msg{From: 0, Tag: 5, F: []float64{1, 2}, I: []int{3}}); err == nil {
		f.Add(append([]byte(nil), wire...))
		tr.PutFloats(-1, backing)
	}
	for _, fr := range []netFrame{
		{typ: netFrameHello, peer: 1, incarnation: 2, runID: "fuzz"},
		{typ: netFrameAck, incarnation: 3},
	} {
		if wire, err := encodeControlFrame(fr); err == nil {
			f.Add(wire)
		}
	}
	f.Add([]byte{4, 4, 0, 0, 0, 2, 0, 0, 0})
	f.Add([]byte{})
	f.Add([]byte{1, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, wire []byte) {
		fr, err := readNetFrame(bytes.NewReader(wire), tr)
		if err != nil {
			return
		}
		if len(fr.msg.F) > netMaxElems || len(fr.msg.I) > netMaxElems {
			t.Fatalf("decoder exceeded the element cap: %d/%d", len(fr.msg.F), len(fr.msg.I))
		}
		if fr.typ == netFrameData {
			// A successfully decoded frame must re-encode.
			if _, backing, err := encodeDataFrame(tr, fr.to, fr.msg); err != nil {
				t.Fatalf("re-encode of decoded frame failed: %v", err)
			} else {
				tr.PutFloats(-1, backing)
			}
			if fr.msg.F != nil {
				tr.PutFloats(-1, fr.msg.F)
			}
		}
	})
}
