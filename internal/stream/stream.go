// Package stream provides the binary wire format for raw RFID readings.
//
// SPIRE's compression experiments (Expt 8, Fig. 11) measure the size of the
// compressed event output against the size of the raw input stream. To make
// that ratio byte-accurate rather than notional, this package defines a
// fixed binary record for the basic RFID triplet <tag id, reader id,
// timestamp> together with streaming encoder/decoder types.
//
// Each reading occupies ReadingSize bytes on the wire:
//
//	tag     8 bytes (big endian)
//	reader  4 bytes
//	time    8 bytes
package stream

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"spire/internal/model"
)

// ReadingSize is the wire size in bytes of a single raw reading.
const ReadingSize = 8 + 4 + 8

// ErrCorrupt reports a malformed raw stream.
var ErrCorrupt = errors.New("stream: corrupt raw reading stream")

// CorruptError reports where a raw stream died: the zero-based index of
// the record that could not be decoded and the byte offset at which it
// starts. It unwraps to ErrCorrupt, so errors.Is(err, ErrCorrupt) keeps
// working for callers that don't care about position.
type CorruptError struct {
	Record int64 // index of the unreadable record
	Offset int64 // byte offset where that record starts
	Err    error // underlying cause (e.g. io.ErrUnexpectedEOF)
}

// Error formats the position and cause.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("stream: corrupt raw reading stream: record %d at byte offset %d: %v",
		e.Record, e.Offset, e.Err)
}

// Unwrap makes errors.Is(err, ErrCorrupt) true.
func (e *CorruptError) Unwrap() error { return ErrCorrupt }

// AppendReading appends the wire form of r to dst and returns the extended
// slice.
func AppendReading(dst []byte, r model.Reading) []byte {
	var buf [ReadingSize]byte
	binary.BigEndian.PutUint64(buf[0:8], uint64(r.Tag))
	binary.BigEndian.PutUint32(buf[8:12], uint32(r.Reader))
	binary.BigEndian.PutUint64(buf[12:20], uint64(r.Time))
	return append(dst, buf[:]...)
}

// DecodeReading decodes one reading from the front of b.
func DecodeReading(b []byte) (model.Reading, error) {
	if len(b) < ReadingSize {
		return model.Reading{}, fmt.Errorf("%w: %d bytes, want %d", ErrCorrupt, len(b), ReadingSize)
	}
	return model.Reading{
		Tag:    model.Tag(binary.BigEndian.Uint64(b[0:8])),
		Reader: model.ReaderID(binary.BigEndian.Uint32(b[8:12])),
		Time:   model.Epoch(binary.BigEndian.Uint64(b[12:20])),
	}, nil
}

// Writer streams readings to an io.Writer, tracking the total bytes
// emitted. It buffers internally; call Flush before inspecting the
// destination.
type Writer struct {
	w     *bufio.Writer
	bytes int64
	count int64
}

// NewWriter returns a Writer emitting to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Write emits one reading.
func (w *Writer) Write(r model.Reading) error {
	var buf [ReadingSize]byte
	binary.BigEndian.PutUint64(buf[0:8], uint64(r.Tag))
	binary.BigEndian.PutUint32(buf[8:12], uint32(r.Reader))
	binary.BigEndian.PutUint64(buf[12:20], uint64(r.Time))
	if _, err := w.w.Write(buf[:]); err != nil {
		return err
	}
	w.bytes += ReadingSize
	w.count++
	return nil
}

// Flush flushes the internal buffer.
func (w *Writer) Flush() error { return w.w.Flush() }

// Bytes returns the total wire bytes written so far.
func (w *Writer) Bytes() int64 { return w.bytes }

// Count returns the number of readings written so far.
func (w *Writer) Count() int64 { return w.count }

// Reader decodes a raw reading stream.
type Reader struct {
	r     *bufio.Reader
	count int64 // records decoded successfully
	// buf is the reused record buffer: a local array would escape
	// through the io.ReadFull interface call and cost one heap
	// allocation per decoded reading.
	buf [ReadingSize]byte
}

// NewReader returns a Reader decoding from r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// Count returns the number of records decoded successfully so far. After
// a *CorruptError it is also the index of the record that failed.
func (r *Reader) Count() int64 { return r.count }

// Read decodes the next reading. It returns io.EOF at a clean end of
// stream, and a *CorruptError (wrapping ErrCorrupt) carrying the record
// index and byte offset if the stream ends mid-record.
func (r *Reader) Read() (model.Reading, error) {
	if _, err := io.ReadFull(r.r, r.buf[:]); err != nil {
		if err == io.EOF {
			return model.Reading{}, io.EOF
		}
		return model.Reading{}, &CorruptError{Record: r.count, Offset: r.count * ReadingSize, Err: err}
	}
	rd, err := DecodeReading(r.buf[:])
	if err != nil {
		return model.Reading{}, &CorruptError{Record: r.count, Offset: r.count * ReadingSize, Err: err}
	}
	r.count++
	return rd, nil
}

// ReadAll decodes the remainder of the stream. On a corrupt stream it
// returns every reading successfully decoded before the failure alongside
// the *CorruptError, so a torn tail costs only the torn record.
func (r *Reader) ReadAll() ([]model.Reading, error) {
	var out []model.Reading
	for {
		rd, err := r.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rd)
	}
}

// SizeCounter is an io.Writer that discards its input but counts bytes.
// The experiment harness uses it to measure stream sizes without holding
// the streams in memory.
type SizeCounter struct{ N int64 }

// Write implements io.Writer.
func (c *SizeCounter) Write(p []byte) (int, error) {
	c.N += int64(len(p))
	return len(p), nil
}
