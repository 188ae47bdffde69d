package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"testing"

	"spire/internal/event"
	"spire/internal/model"
)

func colsTestEvents() []event.Event {
	return []event.Event{
		event.NewStartLocation(11, 2, 40),
		event.NewEndLocation(11, 2, 40, 45),
		event.NewStartContainment(12, 99, 41),
		event.NewEndContainment(12, 99, 41, 45),
		event.NewMissing(13, 3, 45),
	}
}

// TestColumnarFrameRoundTrip pins the columnar epoch encoding: it
// decodes back to the same events and occupies exactly the documented
// column layout — header, 17 bytes per event (kind, object, Vs), 4 per
// location, 8 per container and 8 per End* close epoch.
func TestColumnarFrameRoundTrip(t *testing.T) {
	events := colsTestEvents()
	// Three location events, two containment events, two End* events.
	const want = 4 + 1 + 12 + 17*5 + 4*3 + 8*2 + 8*2
	for _, typ := range []FrameType{FrameEpochCols, FrameFinCols} {
		var buf bytes.Buffer
		n, err := WriteFrameCount(&buf, &Frame{Type: typ, Epoch: 45, Events: events})
		if err != nil {
			t.Fatal(err)
		}
		if n != want {
			t.Errorf("%s: frame is %d bytes, want %d", typ, n, want)
		}
		got, rn, err := ReadFrameCount(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: decode: %v", typ, err)
		}
		if rn != n {
			t.Errorf("%s: decode consumed %d bytes, wrote %d", typ, rn, n)
		}
		if got.Type != typ || got.Epoch != 45 {
			t.Errorf("%s: round trip header %+v", typ, got)
		}
		if !slices.Equal(got.Events, events) {
			t.Errorf("%s: round trip events diverge:\n got %v\nwant %v", typ, got.Events, events)
		}
	}
}

// TestColumnarFrameRejectsCorrupt pins that truncation, bad kinds, and
// trailing bytes are rejected rather than misdecoded.
func TestColumnarFrameRejectsCorrupt(t *testing.T) {
	buf, err := AppendFrame(nil, &Frame{Type: FrameEpochCols, Epoch: 7, Events: colsTestEvents()})
	if err != nil {
		t.Fatal(err)
	}
	// Trailing byte.
	grown := append(slices.Clone(buf), 0)
	binary.BigEndian.PutUint32(grown, uint32(len(grown)-4))
	if _, _, err := ReadFrameCount(bytes.NewReader(grown)); err == nil {
		t.Error("trailing byte accepted")
	}
	// Truncated body.
	cut := slices.Clone(buf[:len(buf)-3])
	binary.BigEndian.PutUint32(cut, uint32(len(cut)-4))
	if _, _, err := ReadFrameCount(bytes.NewReader(cut)); err == nil {
		t.Error("truncated body accepted")
	}
	// Invalid kind in the kind column (offset: 4 len + 1 type + 12 header).
	bad := slices.Clone(buf)
	bad[17] = 0xEE
	if _, _, err := ReadFrameCount(bytes.NewReader(bad)); err == nil {
		t.Error("invalid kind accepted")
	}
}

// TestHandshakeVersion pins the version word: Hello and HelloAck
// round-trip at ProtocolVersion, and the handshakes of older revisions —
// no word at all, or a capability word of 0 or 3 where the version sits —
// fail with ErrProtocolVersion rather than decoding.
func TestHandshakeVersion(t *testing.T) {
	for _, f := range []*Frame{
		{Type: FrameHello, Zone: 2, Epoch: 17},
		{Type: FrameHelloAck, Epoch: model.EpochNone},
	} {
		buf, err := AppendFrame(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := ReadFrameCount(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("%s: %v", f.Type, err)
		}
		if got.Type != f.Type || got.Zone != f.Zone || got.Epoch != f.Epoch {
			t.Errorf("%s: round trip %+v, want %+v", f.Type, got, f)
		}
		if v := binary.BigEndian.Uint32(buf[len(buf)-4:]); v != ProtocolVersion {
			t.Errorf("%s: version word %d, want %d", f.Type, v, ProtocolVersion)
		}

		short := slices.Clone(buf[:len(buf)-4])
		binary.BigEndian.PutUint32(short, uint32(len(short)-4))
		olds := map[string][]byte{"no version word": short}
		for _, caps := range []uint32{0, 3} {
			old := slices.Clone(buf)
			binary.BigEndian.PutUint32(old[len(old)-4:], caps)
			olds[fmt.Sprintf("caps %d", caps)] = old
		}
		for name, old := range olds {
			if _, _, err := ReadFrameCount(bytes.NewReader(old)); !errors.Is(err, ErrProtocolVersion) {
				t.Errorf("%s %s: got %v, want ErrProtocolVersion", f.Type, name, err)
			}
		}
	}
}

// TestFrameCountBombRejected is the regression pin for the hostile first
// frame: a 17-byte frame whose epoch/count header claims 2^32-1 events
// must fail to decode without allocating for the claim — for every frame
// type that carries events and for the retired row types 3 and 5. A
// length prefix announcing the 64 MiB maximum over a connection that
// then sends nothing must likewise cost memory only for what arrived.
func TestFrameCountBombRejected(t *testing.T) {
	bomb := func(typ FrameType) []byte {
		b := binary.BigEndian.AppendUint32(nil, 13)
		b = append(b, byte(typ))
		b = binary.BigEndian.AppendUint64(b, 7)
		return binary.BigEndian.AppendUint32(b, 0xFFFFFFFF)
	}
	inputs := map[string][]byte{
		"max length prefix": binary.BigEndian.AppendUint32(nil, MaxFramePayload),
	}
	for _, typ := range []FrameType{FrameEpochCols, FrameFinCols, 3, 5} {
		inputs[typ.String()] = bomb(typ)
	}
	for name, in := range inputs {
		for _, scratch := range [][]event.Event{nil, make([]event.Event, 0, 4)} {
			if _, _, err := ReadFrameCountInto(bytes.NewReader(in), scratch); err == nil {
				t.Fatalf("%s: decoded without error", name)
			}
			allocs := testing.AllocsPerRun(20, func() {
				ReadFrameCountInto(bytes.NewReader(in), scratch) //nolint:errcheck
			})
			if allocs > 8 {
				t.Errorf("%s: %v allocations per decode, want at most 8", name, allocs)
			}
			if n := allocBytes(func() { ReadFrameCountInto(bytes.NewReader(in), scratch) }); n > decodeAllocLimit(len(in)) { //nolint:errcheck
				t.Errorf("%s: decode allocated %d bytes for %d input bytes", name, n, len(in))
			}
		}
	}
}

// TestReadFrameCountIntoReuses pins the pooled-decode contract: the
// returned events alias the caller's slice when capacity suffices.
func TestReadFrameCountIntoReuses(t *testing.T) {
	buf, err := AppendFrame(nil, &Frame{Type: FrameEpochCols, Epoch: 7, Events: colsTestEvents()})
	if err != nil {
		t.Fatal(err)
	}
	scratch := make([]event.Event, 0, 32)
	f, _, err := ReadFrameCountInto(bytes.NewReader(buf), scratch)
	if err != nil {
		t.Fatal(err)
	}
	if &f.Events[0] != &scratch[:1][0] {
		t.Error("decode did not reuse the provided slice")
	}
}
