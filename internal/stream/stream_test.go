package stream

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"spire/internal/model"
)

func TestAppendDecodeRoundTrip(t *testing.T) {
	r := model.Reading{Tag: 0xDEADBEEF, Reader: 7, Time: 12345}
	b := AppendReading(nil, r)
	if len(b) != ReadingSize {
		t.Fatalf("encoded size = %d, want %d", len(b), ReadingSize)
	}
	got, err := DecodeReading(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Errorf("round trip: got %+v, want %+v", got, r)
	}
}

func TestDecodeShortBuffer(t *testing.T) {
	if _, err := DecodeReading(make([]byte, ReadingSize-1)); err == nil {
		t.Error("short buffer must fail")
	}
}

func TestWriterReaderStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	want := []model.Reading{
		{Tag: 1, Reader: 1, Time: 0},
		{Tag: 2, Reader: 1, Time: 0},
		{Tag: 3, Reader: 2, Time: 1},
	}
	for _, r := range want {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Bytes() != int64(3*ReadingSize) {
		t.Errorf("Bytes = %d, want %d", w.Bytes(), 3*ReadingSize)
	}
	if w.Count() != 3 {
		t.Errorf("Count = %d, want 3", w.Count())
	}
	got, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d readings, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("reading %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestWriteObservationDeterministicOrder pins how one epoch is written:
// the same batch encodes to the same bytes every time, one record per
// reading, readers in ascending order.
func TestWriteObservationDeterministicOrder(t *testing.T) {
	enc := func() []byte {
		b := model.NewBatch(9)
		b.AppendGroup(1, []model.Tag{10, 11})
		b.AppendGroup(2, []model.Tag{20})
		b.AppendGroup(3, []model.Tag{30})
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteBatch(b); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := enc(), enc()
	if !bytes.Equal(a, b) {
		t.Error("WriteBatch must be deterministic")
	}
	rs, err := NewReader(bytes.NewReader(a)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 4 {
		t.Fatalf("got %d readings, want 4", len(rs))
	}
	if rs[0].Reader != 1 || rs[3].Reader != 3 {
		t.Errorf("readings not in reader order: %+v", rs)
	}
}

func TestReaderTruncated(t *testing.T) {
	b := AppendReading(nil, model.Reading{Tag: 1, Reader: 1, Time: 1})
	r := NewReader(bytes.NewReader(b[:ReadingSize-3]))
	if _, err := r.Read(); err == nil || err == io.EOF {
		t.Errorf("truncated record must report corruption, got %v", err)
	}
}

func TestReaderCleanEOF(t *testing.T) {
	r := NewReader(bytes.NewReader(nil))
	if _, err := r.Read(); err != io.EOF {
		t.Errorf("empty stream must return io.EOF, got %v", err)
	}
	all, err := NewReader(bytes.NewReader(nil)).ReadAll()
	if err != nil || len(all) != 0 {
		t.Errorf("ReadAll on empty = %v, %v", all, err)
	}
}

func TestSizeCounter(t *testing.T) {
	var c SizeCounter
	w := NewWriter(&c)
	for i := 0; i < 10; i++ {
		if err := w.Write(model.Reading{Tag: model.Tag(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if c.N != int64(10*ReadingSize) {
		t.Errorf("SizeCounter = %d, want %d", c.N, 10*ReadingSize)
	}
}

// Property: encode/decode round-trips arbitrary readings.
func TestQuickReadingRoundTrip(t *testing.T) {
	f := func(tag uint64, rd int32, tm int64) bool {
		r := model.Reading{Tag: model.Tag(tag), Reader: model.ReaderID(rd), Time: model.Epoch(tm)}
		got, err := DecodeReading(AppendReading(nil, r))
		if err != nil {
			return false
		}
		// Reader IDs are 32-bit on the wire; epochs are stored as uint64
		// two's complement, so they round-trip exactly.
		return got == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptErrorPosition pins the corruption report: the error names the
// zero-based index of the unreadable record and the byte offset at which
// it starts, and unwraps to ErrCorrupt.
func TestCorruptErrorPosition(t *testing.T) {
	var b []byte
	for i := 0; i < 5; i++ {
		b = AppendReading(b, model.Reading{Tag: model.Tag(i + 1), Reader: 1, Time: model.Epoch(i)})
	}
	// Tear the stream in the middle of record 3.
	torn := b[:3*ReadingSize+ReadingSize/2]
	r := NewReader(bytes.NewReader(torn))
	got, err := r.ReadAll()
	if len(got) != 3 {
		t.Fatalf("decoded prefix has %d readings, want 3", len(got))
	}
	for i, rd := range got {
		if rd.Tag != model.Tag(i+1) {
			t.Errorf("prefix reading %d: got tag %d, want %d", i, rd.Tag, i+1)
		}
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T %v, want *CorruptError", err, err)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Error("CorruptError must unwrap to ErrCorrupt")
	}
	if ce.Record != 3 || ce.Offset != 3*ReadingSize {
		t.Errorf("position: record %d offset %d, want record 3 offset %d", ce.Record, ce.Offset, 3*ReadingSize)
	}
	if !strings.Contains(ce.Error(), "record 3") || !strings.Contains(ce.Error(), fmt.Sprintf("byte offset %d", 3*ReadingSize)) {
		t.Errorf("message %q must include record index and byte offset", ce.Error())
	}
	// Reader accessors agree with the error.
	if r.Count() != 3 || r.Offset() != 3*ReadingSize {
		t.Errorf("Count/Offset = %d/%d, want 3/%d", r.Count(), r.Offset(), 3*ReadingSize)
	}
}

// TestReaderCountOffset tracks the accessors through a healthy stream.
func TestReaderCountOffset(t *testing.T) {
	var b []byte
	for i := 0; i < 4; i++ {
		b = AppendReading(b, model.Reading{Tag: model.Tag(i + 1)})
	}
	r := NewReader(bytes.NewReader(b))
	for i := 0; i < 4; i++ {
		if r.Count() != int64(i) || r.Offset() != int64(i*ReadingSize) {
			t.Fatalf("before read %d: Count/Offset = %d/%d", i, r.Count(), r.Offset())
		}
		if _, err := r.Read(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
	if r.Count() != 4 || r.Offset() != int64(4*ReadingSize) {
		t.Errorf("at EOF: Count/Offset = %d/%d", r.Count(), r.Offset())
	}
}
