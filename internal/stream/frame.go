package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"spire/internal/event"
	"spire/internal/model"
)

// Frame protocol for the distributed deployment: a zone worker streams
// its substrate's per-epoch compressed output to the federation
// coordinator over a byte stream (TCP in production, any net.Conn in
// tests) as length-prefixed frames.
//
// The conversation is:
//
//	worker → Hello{Zone, Epoch: last epoch the worker has processed}
//	coord  → HelloAck{Epoch: last epoch the coordinator acked this zone}
//	worker → EpochCols{Epoch, Events}    (one per epoch, possibly empty)
//	coord  → Ack{Epoch}                  (after the epoch barrier merges it)
//	worker → FinCols{Epoch, Events}      (closing events, emitted at Epoch)
//	coord  → Ack{Epoch}                  (final ack)
//	worker → Bye{Epoch}                  (final ack observed; worker exiting)
//
// The handshake carries the resume protocol: a reconnecting worker
// learns the coordinator's ack high-water mark and re-sends exactly the
// epochs after it, so a crash between send and ack neither loses nor
// duplicates merged events.
//
// Hello and HelloAck end in the ProtocolVersion word. A peer speaking any
// other version — or an older revision whose handshake carried a
// capability word, or no word at all — fails to decode with
// ErrProtocolVersion; there is no negotiation.

// ProtocolVersion identifies this revision of the frame protocol. Older
// revisions sent a capability word in its place (0 through 3), so 4 is
// the first value no older peer can send.
const ProtocolVersion uint32 = 4

// ErrProtocolVersion reports a handshake frame from a peer speaking a
// different protocol version. It is permanent: redialing the same peer
// cannot succeed.
var ErrProtocolVersion = errors.New("stream: protocol version mismatch")

// FrameType discriminates the frames of the zone↔coordinator protocol.
type FrameType uint8

// The frame types. Values 3 and 5 carried the retired row-encoded epoch
// frames and are not reused.
const (
	FrameHello    FrameType = 1
	FrameHelloAck FrameType = 2
	FrameAck      FrameType = 4
	// FrameEpochCols and FrameFinCols carry one zone's events for one
	// epoch: an epoch/count header, then the events as struct-of-arrays
	// columns (kind, object, Vs, then the per-kind payload columns). Fin
	// is the zone's last frame, holding its closing events.
	FrameEpochCols FrameType = 6
	FrameFinCols   FrameType = 7
	// FrameBye is the worker's shutdown handshake: it has observed the
	// final ack and will not reconnect. The coordinator's post-run linger
	// ends as soon as every zone says goodbye instead of trusting that
	// its own ack writes were read before the connection died. Epoch
	// carries the worker's ack high-water mark.
	FrameBye FrameType = 8
)

func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "hello"
	case FrameHelloAck:
		return "hello-ack"
	case FrameAck:
		return "ack"
	case FrameEpochCols:
		return "epoch-cols"
	case FrameFinCols:
		return "fin-cols"
	case FrameBye:
		return "bye"
	}
	return fmt.Sprintf("frame(%d)", uint8(t))
}

// Frame is one protocol message. Zone is meaningful for Hello; Epoch for
// every type (Hello: last processed, HelloAck/Ack: acked epoch, EpochCols:
// the batch's epoch, FinCols: the epoch the closing events end at, Bye:
// the worker's ack high-water mark); Events for EpochCols/FinCols.
type Frame struct {
	Type   FrameType
	Zone   int
	Epoch  model.Epoch
	Events []event.Event
}

// MaxFramePayload bounds a frame's encoded payload; a peer announcing
// more is corrupt (or hostile) and the reader fails fast instead of
// allocating unbounded memory.
const MaxFramePayload = 1 << 26

// WriteFrame encodes f as [uint32 length][type][body] and writes it.
func WriteFrame(w io.Writer, f *Frame) error {
	_, err := WriteFrameCount(w, f)
	return err
}

// WriteFrameCount is WriteFrame reporting the wire bytes written
// (header included) — the hook the federate byte counters use. The
// encoding is identical; there is no instrumented wire format.
func WriteFrameCount(w io.Writer, f *Frame) (int, error) {
	buf, err := AppendFrame(nil, f)
	if err != nil {
		return 0, err
	}
	return w.Write(buf)
}

// AppendFrame appends the full wire form of f (length prefix included)
// to dst and returns the extended slice. It is the encoding primitive
// behind WriteFrame; workers use it to build owned replay buffers that
// are written verbatim on every (re)send instead of re-encoding.
func AppendFrame(dst []byte, f *Frame) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length prefix, patched below
	dst = append(dst, byte(f.Type))
	switch f.Type {
	case FrameHello:
		dst = binary.BigEndian.AppendUint32(dst, uint32(f.Zone))
		dst = binary.BigEndian.AppendUint64(dst, uint64(f.Epoch))
		dst = binary.BigEndian.AppendUint32(dst, ProtocolVersion)
	case FrameHelloAck:
		dst = binary.BigEndian.AppendUint64(dst, uint64(f.Epoch))
		dst = binary.BigEndian.AppendUint32(dst, ProtocolVersion)
	case FrameAck, FrameBye:
		dst = binary.BigEndian.AppendUint64(dst, uint64(f.Epoch))
	case FrameEpochCols, FrameFinCols:
		var err error
		if dst, err = appendEventCols(dst, f); err != nil {
			return dst[:start], err
		}
	default:
		return dst[:start], fmt.Errorf("stream: unknown frame type %d", f.Type)
	}
	body := len(dst) - start - 4
	if body > MaxFramePayload {
		return dst[:start], fmt.Errorf("stream: %s frame payload %d exceeds limit", f.Type, body)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(body))
	return dst, nil
}

// appendEventCols encodes the epoch/count header and the event columns:
// kind[count]u8, object[count]u64, vs[count]u64, then loc u32 per
// location-kind event, container u64 per containment-kind event, and ve
// u64 per End* event, each in event order.
func appendEventCols(dst []byte, f *Frame) ([]byte, error) {
	for _, e := range f.Events {
		if err := e.Validate(); err != nil {
			return dst, fmt.Errorf("stream: encode %s frame: %w", f.Type, err)
		}
	}
	dst = binary.BigEndian.AppendUint64(dst, uint64(f.Epoch))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(f.Events)))
	for _, e := range f.Events {
		dst = append(dst, byte(e.Kind))
	}
	for _, e := range f.Events {
		dst = binary.BigEndian.AppendUint64(dst, uint64(e.Object))
	}
	for _, e := range f.Events {
		dst = binary.BigEndian.AppendUint64(dst, uint64(e.Vs))
	}
	for _, e := range f.Events {
		if e.Kind.Location() {
			dst = binary.BigEndian.AppendUint32(dst, uint32(e.Location))
		}
	}
	for _, e := range f.Events {
		if e.Kind.Containment() {
			dst = binary.BigEndian.AppendUint64(dst, uint64(e.Container))
		}
	}
	for _, e := range f.Events {
		if e.Kind == event.EndLocation || e.Kind == event.EndContainment {
			dst = binary.BigEndian.AppendUint64(dst, uint64(e.Ve))
		}
	}
	return dst, nil
}

// ReadFrame reads and decodes one frame. io.EOF at a frame boundary is
// returned as-is; a partial frame yields io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader) (*Frame, error) {
	f, _, err := ReadFrameCount(r)
	return f, err
}

// ReadFrameCount is ReadFrame reporting the wire bytes consumed (header
// included) — the hook the federate byte counters use.
func ReadFrameCount(r io.Reader) (*Frame, int, error) {
	return ReadFrameCountInto(r, nil)
}

// ReadFrameCountInto is ReadFrameCount decoding the frame's events into
// events[:0] (growing as needed) instead of a fresh slice — the hook the
// coordinator's pooled per-zone decoders use. The returned frame's
// Events aliases the provided slice; passing nil restores the allocating
// behaviour.
func ReadFrameCountInto(r io.Reader, events []event.Event) (*Frame, int, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, 0, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFramePayload {
		return nil, 4, fmt.Errorf("stream: frame payload %d exceeds limit", n)
	}
	wire := 4 + int(n)
	body, err := readBody(r, int(n))
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, 4, err
	}
	if len(body) < 1 {
		return nil, wire, fmt.Errorf("stream: empty frame")
	}
	f := &Frame{Type: FrameType(body[0])}
	body = body[1:]
	switch f.Type {
	case FrameHello:
		if err := handshakeSize(f.Type, body, 16); err != nil {
			return nil, wire, err
		}
		f.Zone = int(int32(binary.BigEndian.Uint32(body)))
		f.Epoch = model.Epoch(binary.BigEndian.Uint64(body[4:]))
	case FrameHelloAck:
		if err := handshakeSize(f.Type, body, 12); err != nil {
			return nil, wire, err
		}
		f.Epoch = model.Epoch(binary.BigEndian.Uint64(body))
	case FrameAck, FrameBye:
		if len(body) != 8 {
			return nil, wire, fmt.Errorf("stream: %s frame body %d bytes, want 8", f.Type, len(body))
		}
		f.Epoch = model.Epoch(binary.BigEndian.Uint64(body))
	case FrameEpochCols, FrameFinCols:
		if err := f.decodeEventCols(body, events); err != nil {
			return nil, wire, err
		}
	default:
		return nil, wire, fmt.Errorf("stream: unknown frame type %d", uint8(f.Type))
	}
	return f, wire, nil
}

// handshakeSize checks a Hello/HelloAck body of the given size ending in
// the version word. A body one word short is the oldest protocol
// revision, which had no word there; like a differing word it is a
// version mismatch, not corruption.
func handshakeSize(t FrameType, body []byte, n int) error {
	switch {
	case len(body) == n-4:
		return fmt.Errorf("%w: %s frame without version word", ErrProtocolVersion, t)
	case len(body) != n:
		return fmt.Errorf("stream: %s frame body %d bytes, want %d", t, len(body), n)
	}
	if v := binary.BigEndian.Uint32(body[n-4:]); v != ProtocolVersion {
		return fmt.Errorf("%w: %s frame speaks version %d, want %d", ErrProtocolVersion, t, v, ProtocolVersion)
	}
	return nil
}

// readBody reads an n-byte frame body. The buffer starts small and grows
// with the bytes that actually arrive, so a length prefix announcing a
// large payload costs memory only as fast as the peer delivers it.
func readBody(r io.Reader, n int) ([]byte, error) {
	body := make([]byte, 0, min(n, 4<<10))
	for len(body) < n {
		if len(body) == cap(body) {
			body = slices.Grow(body, min(n-len(body), len(body)))
		}
		next := min(n, cap(body))
		if _, err := io.ReadFull(r, body[len(body):next]); err != nil {
			return nil, err
		}
		body = body[:next]
	}
	return body, nil
}

// decodeEventCols decodes the columnar epoch/fin body into f, reusing
// the capacity of events when non-nil.
func (f *Frame) decodeEventCols(body []byte, events []event.Event) error {
	if len(body) < 12 {
		return fmt.Errorf("stream: truncated %s frame", f.Type)
	}
	f.Epoch = model.Epoch(binary.BigEndian.Uint64(body))
	count := int(binary.BigEndian.Uint32(body[8:]))
	body = body[12:]
	if count > MaxFramePayload/13 || len(body) < count {
		return fmt.Errorf("stream: truncated %s frame", f.Type)
	}
	kinds := body[:count]
	body = body[count:]

	// Size the payload columns from the kind column.
	var nLoc, nCont, nVe int
	for _, k := range kinds {
		switch event.Kind(k) {
		case event.StartLocation, event.Missing:
			nLoc++
		case event.EndLocation:
			nLoc++
			nVe++
		case event.StartContainment:
			nCont++
		case event.EndContainment:
			nCont++
			nVe++
		default:
			return fmt.Errorf("stream: %s frame: invalid kind %d", f.Type, k)
		}
	}
	need := 16*count + 4*nLoc + 8*nCont + 8*nVe
	if len(body) != need {
		return fmt.Errorf("stream: %s frame body %d bytes, want %d", f.Type, len(body), need)
	}
	objs := body[:8*count]
	vss := body[8*count : 16*count]
	locs := body[16*count : 16*count+4*nLoc]
	conts := body[16*count+4*nLoc : 16*count+4*nLoc+8*nCont]
	ves := body[16*count+4*nLoc+8*nCont:]

	if events == nil {
		events = make([]event.Event, 0, count)
	}
	f.Events = events[:0]
	var iLoc, iCont, iVe int
	for i := 0; i < count; i++ {
		e := event.Event{
			Kind:   event.Kind(kinds[i]),
			Object: model.Tag(binary.BigEndian.Uint64(objs[8*i:])),
			Vs:     model.Epoch(binary.BigEndian.Uint64(vss[8*i:])),
		}
		switch e.Kind {
		case event.StartLocation:
			e.Location = model.LocationID(int32(binary.BigEndian.Uint32(locs[4*iLoc:])))
			iLoc++
			e.Ve = model.InfiniteEpoch
		case event.Missing:
			e.Location = model.LocationID(int32(binary.BigEndian.Uint32(locs[4*iLoc:])))
			iLoc++
			e.Ve = e.Vs
		case event.EndLocation:
			e.Location = model.LocationID(int32(binary.BigEndian.Uint32(locs[4*iLoc:])))
			iLoc++
			e.Ve = model.Epoch(binary.BigEndian.Uint64(ves[8*iVe:]))
			iVe++
		case event.StartContainment:
			e.Container = model.Tag(binary.BigEndian.Uint64(conts[8*iCont:]))
			iCont++
			e.Ve = model.InfiniteEpoch
		case event.EndContainment:
			e.Container = model.Tag(binary.BigEndian.Uint64(conts[8*iCont:]))
			iCont++
			e.Ve = model.Epoch(binary.BigEndian.Uint64(ves[8*iVe:]))
			iVe++
		}
		if err := e.Validate(); err != nil {
			return fmt.Errorf("stream: %s frame event %d: %w", f.Type, i, err)
		}
		f.Events = append(f.Events, e)
	}
	return nil
}
