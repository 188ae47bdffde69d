// Package checkpoint provides the binary snapshot format SPIRE uses to
// make its cumulative pipeline state crash-safe.
//
// The interpretation substrate is an online system: the colored graph,
// dedup history, and the compressors' open intervals all accumulate from
// the beginning of the stream, so a process restart without durable state
// would resume into garbage. This package supplies the low-level pieces of
// the durability layer: a deterministic, compact binary encoder, a
// strict decoder that never panics on corrupt input, and atomic file
// helpers. The actual state layout lives with the state owners
// (graph.EncodeState, dedup, compress, core.Substrate.Snapshot); this
// package only knows bytes.
//
// Snapshot layout:
//
//	magic    8 bytes  "SPIRECKP"
//	version  2 bytes  big-endian format version
//	reserved 2 bytes  zero
//	length   8 bytes  body length in bytes
//	crc      4 bytes  CRC-32C (Castagnoli) of the body
//	body     length bytes
//
// Body integers are varints; an ascending tag list stores each tag as its
// step from the one before (Tag), and epochs their distance back from the
// snapshot's base epoch (BaseEpoch, Epoch), so recent state takes a byte
// or two per field.
//
// The CRC covers the whole body, so any truncation or bit flip after the
// header is detected before a single field is decoded; header damage is
// caught by the magic/version/length checks. Decoding is all-or-nothing:
// a Decoder hands out fields only after the checksum has verified, and
// callers construct fresh state from it, so a bad snapshot can never be
// half-applied.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"spire/internal/model"
)

// Version is the snapshot format version this build writes and reads.
// Version 3 holds only state that replaying the input rebuilds, so equal
// inputs write equal snapshots. A snapshot of any other version is
// rejected with ErrVersion: snapshots do not outlive the build that wrote
// them, so no older decoder is kept.
const Version = 3

const (
	magic      = "SPIRECKP"
	headerSize = 8 + 2 + 2 + 8 + 4

	// maxBody bounds the declared body length so a corrupt header cannot
	// demand an absurd allocation.
	maxBody = 1 << 31

	firstRead = 1 << 20 // the most allocated before the stream delivers it
)

// ErrCorrupt reports a snapshot that is damaged: bad magic, bad checksum,
// truncated body, or malformed fields.
var ErrCorrupt = errors.New("checkpoint: corrupt snapshot")

// ErrVersion reports a snapshot written by another format version.
var ErrVersion = errors.New("checkpoint: unsupported snapshot version")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encoder accumulates a snapshot body in memory. Given identical state
// the byte output is identical, which is what lets tests pin snapshot
// determinism.
type Encoder struct {
	buf  []byte
	base model.Epoch // see BaseEpoch
}

// NewEncoder returns an empty Encoder.
func NewEncoder() *Encoder {
	return &Encoder{buf: make([]byte, 0, 4096)}
}

// Len returns the current body size in bytes.
func (e *Encoder) Len() int { return len(e.buf) }

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Varint appends a signed (zigzag) varint.
func (e *Encoder) Varint(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// BaseEpoch appends v and makes it the base of later Epoch fields.
func (e *Encoder) BaseEpoch(v model.Epoch) {
	e.Varint(int64(v))
	e.base = v
}

// Epoch appends v as its distance back from the base epoch, with
// model.EpochNone as the code 0.
func (e *Encoder) Epoch(v model.Epoch) {
	if v == model.EpochNone {
		e.Uvarint(0)
		return
	}
	d := int64(e.base - v)
	e.Uvarint(uint64(d<<1^d>>63) + 1)
}

// Tag appends t, the successor of prev in a strictly ascending tag list
// starting from model.NoTag, as its distance from prev.
func (e *Encoder) Tag(prev, t model.Tag) { e.Uvarint(uint64(t - prev)) }

// Uint8 appends a single byte.
func (e *Encoder) Uint8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.Uint8(1)
	} else {
		e.Uint8(0)
	}
}

// Float64 appends an IEEE-754 double, fixed-width.
func (e *Encoder) Float64(v float64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// String appends a length-prefixed UTF-8 string.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Section appends a four-byte section tag. Sections give decode errors a
// location and catch field-alignment bugs early.
func (e *Encoder) Section(tag string) {
	if len(tag) != 4 {
		panic(fmt.Sprintf("checkpoint: section tag %q must be 4 bytes", tag))
	}
	e.buf = append(e.buf, tag...)
}

// Flush writes the framed snapshot (header + body) to w. The Encoder
// remains usable; calling Flush again rewrites the same snapshot.
func (e *Encoder) Flush(w io.Writer) error {
	var hdr [headerSize]byte
	copy(hdr[:8], magic)
	binary.BigEndian.PutUint16(hdr[8:10], Version)
	binary.BigEndian.PutUint64(hdr[12:20], uint64(len(e.buf)))
	binary.BigEndian.PutUint32(hdr[20:24], crc32.Checksum(e.buf, castagnoli))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(e.buf)
	return err
}

// Decoder reads a verified snapshot body field by field. Errors are
// sticky: after the first failure every accessor returns zero values, and
// Err (or Finish) reports the failure. A Decoder never panics on corrupt
// input.
type Decoder struct {
	b    []byte
	off  int
	err  error
	base model.Epoch
}

// NewDecoder reads and verifies the snapshot header and body from r. It
// returns an error if the magic, version, length, or checksum do not hold.
func NewDecoder(r io.Reader) (*Decoder, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrCorrupt, err)
	}
	if string(hdr[:8]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, hdr[:8])
	}
	if version := binary.BigEndian.Uint16(hdr[8:10]); version != Version {
		return nil, fmt.Errorf("%w: snapshot version %d, this build reads %d", ErrVersion, version, Version)
	}
	// The reserved field must be zero in every current version; a nonzero
	// value is either corruption or a future format this build predates.
	if rsv := binary.BigEndian.Uint16(hdr[10:12]); rsv != 0 {
		return nil, fmt.Errorf("%w: reserved header field %#x not zero", ErrCorrupt, rsv)
	}
	length := binary.BigEndian.Uint64(hdr[12:20])
	if length > maxBody {
		return nil, fmt.Errorf("%w: body length %d exceeds limit", ErrCorrupt, length)
	}
	want := binary.BigEndian.Uint32(hdr[20:24])
	// A body up to firstRead is read with no copy; past it the buffer
	// grows only as the stream delivers.
	var body bytes.Buffer
	body.Grow(min(int(length), firstRead) + bytes.MinRead)
	if n, err := io.CopyN(&body, r, int64(length)); err != nil {
		return nil, fmt.Errorf("%w: body truncated at %d of %d bytes", ErrCorrupt, n, length)
	}
	if got := crc32.Checksum(body.Bytes(), castagnoli); got != want {
		return nil, fmt.Errorf("%w: body checksum %08x, want %08x", ErrCorrupt, got, want)
	}
	return &Decoder{b: body.Bytes()}, nil
}

// fail records the first error and drops the body, so every later read
// finds nothing.
func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: offset %d: %s", ErrCorrupt, d.off, fmt.Sprintf(format, args...))
		d.b, d.off = nil, 0
	}
}

// Err returns the first decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread body bytes.
func (d *Decoder) Remaining() int { return len(d.b) - d.off }

// Finish returns the first decode error, or an error if unread bytes
// remain (a snapshot must be consumed exactly).
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("%w: %d trailing bytes after last section", ErrCorrupt, len(d.b)-d.off)
	}
	return nil
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.Remaining() < n {
		d.fail("need %d bytes, %d remain", n, d.Remaining())
		return nil
	}
	b := d.b[d.off : d.off+n]
	d.off += n
	return b
}

// Uvarint reads an unsigned varint. A truncated varint, one longer than
// its value needs, or one overflowing 64 bits is corrupt.
func (d *Decoder) Uvarint() uint64 {
	if i := d.off; i < len(d.b) && d.b[i] < 0x80 { // one byte: inlined
		d.off = i + 1
		return uint64(d.b[i])
	}
	return d.uvarint()
}

func (d *Decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 || n > 1 && d.b[d.off+n-1] == 0 {
		d.fail("malformed varint")
		return 0
	}
	d.off += n
	return v
}

// Varint reads a signed (zigzag) varint.
func (d *Decoder) Varint() int64 {
	u := d.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// BaseEpoch reads an Encoder.BaseEpoch field and makes it the base.
func (d *Decoder) BaseEpoch() model.Epoch {
	d.base = model.Epoch(d.Varint())
	return d.base
}

// Epoch reads an epoch written by Encoder.Epoch.
func (d *Decoder) Epoch() model.Epoch {
	c := d.Uvarint()
	if c == 0 {
		return model.EpochNone
	}
	c--
	v := d.base - model.Epoch(int64(c>>1)^-int64(c&1))
	if v == model.EpochNone {
		d.fail("epoch code %d names the none epoch", c+1)
	}
	return v
}

// Tag reads the successor of prev written by Encoder.Tag. A tag not
// above prev (zero, repeated or wrapped) is corrupt.
func (d *Decoder) Tag(prev model.Tag) model.Tag {
	t := prev + model.Tag(d.Uvarint())
	if t <= prev && d.err == nil {
		d.fail("tag list not ascending after %d", prev)
	}
	return t
}

// Uint8 reads a single byte.
func (d *Decoder) Uint8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a one-byte boolean; any value other than 0 or 1 is corrupt.
func (d *Decoder) Bool() bool {
	switch d.Uint8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("invalid boolean byte")
		return false
	}
}

// Float64 reads an IEEE-754 double.
func (d *Decoder) Float64() float64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.BigEndian.Uint64(b))
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.Count(1)
	b := d.take(n)
	return string(b)
}

// Count reads an element count and validates it against the remaining
// body: a count of n elements of at least elemSize bytes each cannot
// exceed what is left, which stops a corrupt count from provoking a huge
// allocation. elemSize must be >= 1.
func (d *Decoder) Count(elemSize int) int {
	v := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if elemSize < 1 {
		elemSize = 1
	}
	if v > uint64(d.Remaining()/elemSize) {
		d.fail("count %d exceeds remaining body (%d bytes, elem >= %d)", v, d.Remaining(), elemSize)
		return 0
	}
	return int(v)
}

// Section consumes a four-byte section tag and verifies it.
func (d *Decoder) Section(tag string) {
	b := d.take(4)
	if b == nil {
		return
	}
	if string(b) != tag {
		d.fail("section %q, want %q", b, tag)
	}
}

// WriteFileAtomic writes a snapshot to path atomically: the bytes go to a
// temporary file in the same directory, are fsynced, and the file is
// renamed over path, so a crash mid-write can never leave a torn snapshot
// where a reader looks for one.
func WriteFileAtomic(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// Make the rename itself durable.
	if d, derr := os.Open(dir); derr == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// ReadFile opens path and hands the stream to read.
func ReadFile(path string, read func(io.Reader) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return read(f)
}
