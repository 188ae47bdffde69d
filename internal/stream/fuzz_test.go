package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"spire/internal/event"
	"spire/internal/model"
)

// FuzzDecodeReading: arbitrary bytes must decode or fail cleanly, and a
// successful decode must re-encode to the same wire bytes.
func FuzzDecodeReading(f *testing.F) {
	f.Add(AppendReading(nil, model.Reading{Tag: 0xDEADBEEF, Reader: 7, Time: 12345}))
	f.Add([]byte{})
	f.Add(make([]byte, ReadingSize-1))
	f.Fuzz(func(t *testing.T, data []byte) {
		rd, err := DecodeReading(data)
		if len(data) < ReadingSize {
			if err == nil {
				t.Fatalf("%d bytes decoded without error", len(data))
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("short-buffer error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("full record failed to decode: %v", err)
		}
		if re := AppendReading(nil, rd); !bytes.Equal(re, data[:ReadingSize]) {
			t.Fatalf("re-encode mismatch: %x vs %x", re, data[:ReadingSize])
		}
	})
}

// FuzzReader: the streaming decoder must never panic, must return exactly
// the whole-record prefix of any input, and must position its corruption
// report at the first torn record.
func FuzzReader(f *testing.F) {
	var clean []byte
	for i := 0; i < 3; i++ {
		clean = AppendReading(clean, model.Reading{Tag: model.Tag(i + 1), Reader: 1, Time: model.Epoch(i)})
	}
	f.Add(clean)
	f.Add(clean[:len(clean)-ReadingSize/2])
	f.Add([]byte("not a reading stream"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		out, err := r.ReadAll()
		full := len(data) / ReadingSize
		if len(out) != full {
			t.Fatalf("decoded %d records, want the full-record prefix of %d", len(out), full)
		}
		if len(data)%ReadingSize == 0 {
			if err != nil {
				t.Fatalf("whole-record stream failed: %v", err)
			}
		} else {
			var ce *CorruptError
			if !errors.As(err, &ce) || !errors.Is(err, ErrCorrupt) {
				t.Fatalf("torn stream error %v, want *CorruptError wrapping ErrCorrupt", err)
			}
			if ce.Record != int64(full) || ce.Offset != int64(full*ReadingSize) {
				t.Fatalf("corruption at record %d offset %d, want %d/%d",
					ce.Record, ce.Offset, full, full*ReadingSize)
			}
		}
		var re []byte
		for _, rd := range out {
			re = AppendReading(re, rd)
		}
		if !bytes.Equal(re, data[:len(re)]) {
			t.Fatal("decoded prefix does not re-encode to the input bytes")
		}
		// A second Read after exhaustion stays terminal.
		if _, err := r.Read(); err == nil {
			t.Fatal("Read past the end returned no error")
		} else if len(data)%ReadingSize == 0 && err != io.EOF {
			t.Fatalf("clean end returned %v, want io.EOF", err)
		}
	})
}

// allocBytes reports the heap bytes fn allocates.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// decodeAllocLimit is the most one frame decode may allocate for n input
// bytes: a small multiple of what arrived (body buffer, decoded events)
// plus a constant for the first body chunk, the frame and the error —
// never a size a header merely claims.
func decodeAllocLimit(n int) uint64 { return 16*uint64(n) + 64<<10 }

// FuzzReadFrame: arbitrary bytes must decode or fail cleanly, with or
// without a scratch slice, allocating no more than decodeAllocLimit; a
// successful decode must re-encode to exactly the bytes it consumed. The
// seeds are one frame of every type plus the count bomb (also committed
// under testdata/fuzz/FuzzReadFrame).
func FuzzReadFrame(f *testing.F) {
	for _, fr := range []*Frame{
		{Type: FrameHello, Zone: 1, Epoch: 41},
		{Type: FrameHelloAck, Epoch: model.EpochNone},
		{Type: FrameAck, Epoch: 99},
		{Type: FrameEpochCols, Epoch: 45, Events: colsTestEvents()},
		{Type: FrameFinCols, Epoch: 46},
		{Type: FrameBye, Epoch: 46},
	} {
		b, err := AppendFrame(nil, fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b, false)
	}
	bomb := binary.BigEndian.AppendUint32(nil, 13)
	bomb = append(bomb, byte(FrameEpochCols))
	bomb = binary.BigEndian.AppendUint64(bomb, 7)
	f.Add(binary.BigEndian.AppendUint32(bomb, 0xFFFFFFFF), true)
	f.Fuzz(func(t *testing.T, data []byte, reuse bool) {
		var scratch []event.Event
		if reuse {
			scratch = make([]event.Event, 0, 4)
		}
		var fr *Frame
		var n int
		var err error
		alloc := allocBytes(func() { fr, n, err = ReadFrameCountInto(bytes.NewReader(data), scratch) })
		if alloc > decodeAllocLimit(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), alloc, decodeAllocLimit(len(data)))
		}
		if err != nil {
			return
		}
		re, err := AppendFrame(nil, fr)
		if err != nil {
			t.Fatalf("decoded %s frame does not re-encode: %v", fr.Type, err)
		}
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("%s frame re-encodes to %x, consumed %x", fr.Type, re, data[:n])
		}
	})
}
