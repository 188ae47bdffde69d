package stream

import (
	"bytes"
	"testing"

	"spire/internal/event"
	"spire/internal/model"
)

// TestFrameCountMatchesWire pins that the counted variants report
// exactly the bytes on the wire — the federate byte counters must add
// up to what tcpdump would show — and that the uncounted wrappers
// produce identical encodings (there is no instrumented wire format).
func TestFrameCountMatchesWire(t *testing.T) {
	frames := []*Frame{
		{Type: FrameHello, Zone: 3, Epoch: 41},
		{Type: FrameHelloAck, Epoch: model.EpochNone},
		{Type: FrameAck, Epoch: 99},
		{Type: FrameEpochCols, Epoch: 7, Events: []event.Event{
			event.NewStartLocation(1, 2, 3),
			event.NewEndLocation(1, 2, 3, 9),
		}},
		{Type: FrameFinCols, Epoch: 1200},
		{Type: FrameBye, Epoch: 1200},
	}
	for _, f := range frames {
		var counted bytes.Buffer
		n, err := WriteFrameCount(&counted, f)
		if err != nil {
			t.Fatalf("%s: WriteFrameCount: %v", f.Type, err)
		}
		if n != counted.Len() {
			t.Errorf("%s: WriteFrameCount reported %d bytes, wrote %d", f.Type, n, counted.Len())
		}

		var plain bytes.Buffer
		if err := WriteFrame(&plain, f); err != nil {
			t.Fatalf("%s: WriteFrame: %v", f.Type, err)
		}
		if !bytes.Equal(plain.Bytes(), counted.Bytes()) {
			t.Errorf("%s: counted and plain encodings differ", f.Type)
		}

		got, rn, err := ReadFrameCount(bytes.NewReader(counted.Bytes()))
		if err != nil {
			t.Fatalf("%s: ReadFrameCount: %v", f.Type, err)
		}
		if rn != n {
			t.Errorf("%s: ReadFrameCount consumed %d bytes, wrote %d", f.Type, rn, n)
		}
		if got.Type != f.Type || got.Zone != f.Zone && f.Type == FrameHello || got.Epoch != f.Epoch {
			t.Errorf("%s: round trip got %+v, want %+v", f.Type, got, f)
		}
		if len(got.Events) != len(f.Events) {
			t.Errorf("%s: round trip got %d events, want %d", f.Type, len(got.Events), len(f.Events))
		}
	}
}
