package cluster

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"unsafe"
)

// The net transport's wire protocol: length-prefixed binary frames over a
// persistent TCP connection, one frame per message or control event. Every
// multi-byte field is little-endian. A frame is
//
//	[1 byte type][4 bytes body length][body]
//
// with three frame types:
//
//	data:  [from u32][to u32][tag u32][nF u32][nI u32][nF x float64][nI x int64]
//	hello: [version u32][peer u32][incarnation u32][runID len u16][runID]
//	ack:   [incarnation u32]
//
// Float payloads travel as raw IEEE-754 bit patterns (math.Float64bits), so
// every value — including NaN payloads and signed zeros — round-trips
// bit-exactly; the wire can never change a solve by an ulp.
//
// The decoder is fail-closed: a truncated, oversized, or internally
// inconsistent frame yields an error, never a panic, and payload buffers are
// allocated only after the declared element counts have been validated
// against both the hard caps and the declared body length, so a garbage
// length field cannot drive an oversized allocation.
const (
	netFrameData  byte = 1
	netFrameHello byte = 2
	netFrameAck   byte = 3

	// netWireVersion guards against mixed-build fleets: the hello handshake
	// rejects peers speaking a different frame layout.
	netWireVersion = 1

	// netMaxElems caps the element count of one payload slice (16 Mi
	// entries = 128 MiB of floats): far above any halo, collective, or
	// gather the solver ships, and low enough that a hostile length field
	// cannot make the decoder allocate unboundedly.
	netMaxElems = 1 << 24

	// netMaxRunID bounds the handshake's run identifier.
	netMaxRunID = 256

	// netDataHeader is the fixed part of a data frame body.
	netDataHeader = 20

	// netMaxBody bounds a whole frame body.
	netMaxBody = netDataHeader + 2*8*netMaxElems
)

// netWireBufs is the buffer source the codec draws encode/decode buffers
// from — in production the net transport itself, whose Get/PutFloats are
// the in-process fabric's size-class recycler.
type netWireBufs interface {
	GetFloats(rank, n int) []float64
	PutFloats(rank int, buf []float64)
}

// netBytesOf views a recycled float buffer as a byte slice of length n.
// The float slice keeps the allocation alive and is what goes back to the
// recycler.
func netBytesOf(bs netWireBufs, n int) ([]byte, []float64) {
	if n == 0 {
		return nil, nil
	}
	f := bs.GetFloats(-1, (n+7)/8)
	b := unsafe.Slice((*byte)(unsafe.Pointer(&f[0])), len(f)*8)[:n]
	return b, f
}

// netFrame is one decoded wire frame.
type netFrame struct {
	typ byte

	// data frames
	to  int
	msg Msg

	// hello/ack frames
	peer        int
	incarnation int
	runID       string
}

// encodeDataFrame serializes one message bound for rank `to` into a single
// contiguous wire buffer drawn from bs. The caller writes the returned bytes
// and then must hand backing to bs.PutFloats. The message payload is only
// read, never retained.
func encodeDataFrame(bs netWireBufs, to int, m Msg) (wire []byte, backing []float64, err error) {
	if len(m.F) > netMaxElems || len(m.I) > netMaxElems {
		return nil, nil, fmt.Errorf("cluster: net payload %d/%d elements exceeds the wire cap %d",
			len(m.F), len(m.I), netMaxElems)
	}
	if m.Tag < 0 || int64(m.Tag) > math.MaxUint32 {
		return nil, nil, fmt.Errorf("cluster: net tag %d out of wire range", m.Tag)
	}
	body := netDataHeader + 8*len(m.F) + 8*len(m.I)
	wire, backing = netBytesOf(bs, 5+body)
	wire[0] = netFrameData
	binary.LittleEndian.PutUint32(wire[1:], uint32(body))
	h := wire[5:]
	binary.LittleEndian.PutUint32(h[0:], uint32(m.From))
	binary.LittleEndian.PutUint32(h[4:], uint32(to))
	binary.LittleEndian.PutUint32(h[8:], uint32(m.Tag))
	binary.LittleEndian.PutUint32(h[12:], uint32(len(m.F)))
	binary.LittleEndian.PutUint32(h[16:], uint32(len(m.I)))
	p := h[netDataHeader:]
	for i, v := range m.F {
		binary.LittleEndian.PutUint64(p[8*i:], math.Float64bits(v))
	}
	p = p[8*len(m.F):]
	for i, v := range m.I {
		binary.LittleEndian.PutUint64(p[8*i:], uint64(v))
	}
	return wire, backing, nil
}

// encodeControlFrame serializes a hello or ack frame into a small
// heap buffer (control frames are rare and tiny).
func encodeControlFrame(fr netFrame) ([]byte, error) {
	var body []byte
	switch fr.typ {
	case netFrameHello:
		if len(fr.runID) > netMaxRunID {
			return nil, fmt.Errorf("cluster: net runID longer than %d bytes", netMaxRunID)
		}
		body = make([]byte, 14+len(fr.runID))
		binary.LittleEndian.PutUint32(body[0:], netWireVersion)
		binary.LittleEndian.PutUint32(body[4:], uint32(fr.peer))
		binary.LittleEndian.PutUint32(body[8:], uint32(fr.incarnation))
		binary.LittleEndian.PutUint16(body[12:], uint16(len(fr.runID)))
		copy(body[14:], fr.runID)
	case netFrameAck:
		body = make([]byte, 4)
		binary.LittleEndian.PutUint32(body, uint32(fr.incarnation))
	default:
		return nil, fmt.Errorf("cluster: cannot encode net frame type %d", fr.typ)
	}
	wire := make([]byte, 5+len(body))
	wire[0] = fr.typ
	binary.LittleEndian.PutUint32(wire[1:], uint32(len(body)))
	copy(wire[5:], body)
	return wire, nil
}

// readNetFrame reads and validates one frame from r. Data-frame float
// payloads are drawn from bs (ownership passes to the caller, who delivers
// them as owned messages so they flow back through the recycler); int
// payloads are plainly allocated (setup-phase-only traffic). Any wire-format
// violation is an error; readNetFrame never panics on hostile input.
func readNetFrame(r io.Reader, bs netWireBufs) (netFrame, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return netFrame{}, err
	}
	typ := hdr[0]
	body := int(binary.LittleEndian.Uint32(hdr[1:]))
	if body > netMaxBody {
		return netFrame{}, fmt.Errorf("cluster: net frame body %d exceeds cap %d", body, netMaxBody)
	}
	switch typ {
	case netFrameData:
		return readNetDataFrame(r, bs, body)
	case netFrameHello:
		if body < 14 || body > 14+netMaxRunID {
			return netFrame{}, fmt.Errorf("cluster: net hello body %d malformed", body)
		}
		buf := make([]byte, body)
		if _, err := io.ReadFull(r, buf); err != nil {
			return netFrame{}, fmt.Errorf("cluster: truncated net hello: %w", err)
		}
		if v := binary.LittleEndian.Uint32(buf[0:]); v != netWireVersion {
			return netFrame{}, fmt.Errorf("cluster: net wire version %d, want %d", v, netWireVersion)
		}
		idLen := int(binary.LittleEndian.Uint16(buf[12:]))
		if 14+idLen != body {
			return netFrame{}, fmt.Errorf("cluster: net hello runID length %d disagrees with body %d", idLen, body)
		}
		return netFrame{
			typ:         typ,
			peer:        int(binary.LittleEndian.Uint32(buf[4:])),
			incarnation: int(binary.LittleEndian.Uint32(buf[8:])),
			runID:       string(buf[14:]),
		}, nil
	case netFrameAck:
		if body != 4 {
			return netFrame{}, fmt.Errorf("cluster: net ack body %d, want 4", body)
		}
		var buf [4]byte
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return netFrame{}, fmt.Errorf("cluster: truncated net ack: %w", err)
		}
		return netFrame{typ: typ, incarnation: int(binary.LittleEndian.Uint32(buf[:]))}, nil
	}
	return netFrame{}, fmt.Errorf("cluster: unknown net frame type %d", typ)
}

// readNetDataFrame decodes a data frame body. The element counts are
// validated against both the hard cap and the declared body length before
// any payload buffer is allocated.
func readNetDataFrame(r io.Reader, bs netWireBufs, body int) (netFrame, error) {
	if body < netDataHeader {
		return netFrame{}, fmt.Errorf("cluster: net data body %d shorter than header", body)
	}
	var h [netDataHeader]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return netFrame{}, fmt.Errorf("cluster: truncated net data header: %w", err)
	}
	nF := int(binary.LittleEndian.Uint32(h[12:]))
	nI := int(binary.LittleEndian.Uint32(h[16:]))
	if nF > netMaxElems || nI > netMaxElems {
		return netFrame{}, fmt.Errorf("cluster: net payload %d/%d elements exceeds the wire cap %d",
			nF, nI, netMaxElems)
	}
	if netDataHeader+8*nF+8*nI != body {
		return netFrame{}, fmt.Errorf("cluster: net data counts (%d, %d) disagree with body %d", nF, nI, body)
	}
	fr := netFrame{
		typ: netFrameData,
		to:  int(binary.LittleEndian.Uint32(h[4:])),
		msg: Msg{
			From: int(binary.LittleEndian.Uint32(h[0:])),
			Tag:  int(binary.LittleEndian.Uint32(h[8:])),
		},
	}
	if nF > 0 {
		raw, backing := netBytesOf(bs, 8*nF)
		if _, err := io.ReadFull(r, raw); err != nil {
			bs.PutFloats(-1, backing)
			return netFrame{}, fmt.Errorf("cluster: truncated net float payload: %w", err)
		}
		f := bs.GetFloats(-1, nF)
		for i := range f {
			f[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		bs.PutFloats(-1, backing)
		fr.msg.F = f
	}
	if nI > 0 {
		raw, backing := netBytesOf(bs, 8*nI)
		if _, err := io.ReadFull(r, raw); err != nil {
			bs.PutFloats(-1, backing)
			if fr.msg.F != nil {
				bs.PutFloats(-1, fr.msg.F)
			}
			return netFrame{}, fmt.Errorf("cluster: truncated net int payload: %w", err)
		}
		ints := make([]int, nI)
		for i := range ints {
			ints[i] = int(int64(binary.LittleEndian.Uint64(raw[8*i:])))
		}
		bs.PutFloats(-1, backing)
		fr.msg.I = ints
	}
	return fr, nil
}
