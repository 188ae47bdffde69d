// Package eventlog persists SPIRE's compressed output stream durably, in
// the style of a write-ahead log: append-only segment files with CRC-32C
// framing, size-based rotation, and crash recovery that tolerates a torn
// final record.
//
// The paper's substrate feeds downstream warehouses and query processors;
// in a production deployment the event stream must survive process
// restarts between the substrate and those consumers. A Log provides
// that: Append frames each event, Sync makes it durable, and Replay
// rebuilds the stream (for example into a query.Store) after a crash.
//
// On-disk layout: <dir>/events-<n>.seg files numbered from 0. Each record
// is
//
//	u16 length | u32 crc32c(payload) | payload (event wire format)
//
// Recovery scans all segments in order, verifying every checksum. A
// truncated or corrupt record at the very tail of the *last* segment is
// treated as a torn write: the segment is truncated there and appending
// resumes. Corruption anywhere else is an error — the log is damaged, not
// merely torn.
package eventlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"spire/internal/event"
)

// ErrCorrupt reports checksum or framing damage before the tail of the
// last segment.
var ErrCorrupt = errors.New("eventlog: corrupt record")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	headerSize = 2 + 4 // length + crc

	// DefaultMaxSegmentBytes rotates segments at 64 MiB.
	DefaultMaxSegmentBytes = 64 << 20
)

// Options tunes a Log.
type Options struct {
	// MaxSegmentBytes rotates to a fresh segment when the current one
	// exceeds this size. Defaults to DefaultMaxSegmentBytes.
	MaxSegmentBytes int64
	// SyncEvery issues an fsync after this many appended events; zero
	// leaves durability entirely to explicit Sync/Close calls.
	SyncEvery int
}

// Log is an append-only event log. It is not safe for concurrent use.
type Log struct {
	dir      string
	opts     Options
	seg      segment
	segIndex int
	segSize  int64
	appended int64
	unsynced int
	buf      []byte
}

// segment is the part of the open segment file a Log writes through.
type segment interface {
	io.WriteCloser
	Sync() error
}

func segName(i int) string { return fmt.Sprintf("events-%08d.seg", i) }

// segments lists the segment indices present in dir, ascending.
func segments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []int
	for _, e := range entries {
		var i int
		if n, _ := fmt.Sscanf(e.Name(), "events-%08d.seg", &i); n == 1 {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out, nil
}

// Open opens (creating if needed) the log in dir, recovering from a torn
// tail write if one is found.
func Open(dir string, opts Options) (*Log, error) {
	if opts.MaxSegmentBytes <= 0 {
		opts.MaxSegmentBytes = DefaultMaxSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	segs, err := segments(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts}
	if len(segs) == 0 {
		if err := l.rotate(0); err != nil {
			return nil, err
		}
		return l, nil
	}
	// Verify all but the last segment fully; recover the last.
	for _, i := range segs[:len(segs)-1] {
		if _, err := scanSegment(filepath.Join(dir, segName(i)), false, nil); err != nil {
			return nil, fmt.Errorf("segment %d: %w", i, err)
		}
	}
	last := segs[len(segs)-1]
	valid, err := scanSegment(filepath.Join(dir, segName(last)), true, nil)
	if err != nil {
		return nil, fmt.Errorf("segment %d: %w", last, err)
	}
	f, err := os.OpenFile(filepath.Join(dir, segName(last)), os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	l.seg = f
	l.segIndex = last
	l.segSize = valid
	return l, nil
}

// rotate closes the current segment and opens segment i.
func (l *Log) rotate(i int) error {
	if l.seg != nil {
		if err := l.seg.Sync(); err != nil {
			return err
		}
		if err := l.seg.Close(); err != nil {
			return err
		}
	}
	f, err := os.OpenFile(filepath.Join(l.dir, segName(i)), os.O_CREATE|os.O_RDWR|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	l.seg = f
	l.segIndex = i
	l.segSize = 0
	return nil
}

// Append frames events into one buffer and writes it once, or early at a
// record that fills SyncEvery or the segment: syncs and rotations fall at
// the same records as with a write per event. A call with an invalid
// event writes and counts nothing: every event is validated before the
// first is framed.
func (l *Log) Append(events ...event.Event) error {
	if l.seg == nil {
		return errors.New("eventlog: log is closed")
	}
	for i := range events {
		if err := events[i].Validate(); err != nil {
			return err
		}
	}
	framed := 0
	for _, e := range events {
		n := len(l.buf)
		buf, err := event.Append(append(l.buf, make([]byte, headerSize)...), e)
		if err != nil {
			l.buf = l.buf[:n]
			return errors.Join(err, l.flush(framed))
		}
		payload := buf[n+headerSize:]
		binary.BigEndian.PutUint16(buf[n:], uint16(len(payload)))
		binary.BigEndian.PutUint32(buf[n+2:], crc32.Checksum(payload, castagnoli))
		l.buf, framed = buf, framed+1
		syncDue := l.opts.SyncEvery > 0 && l.unsynced+framed >= l.opts.SyncEvery
		if !syncDue && l.segSize+int64(len(l.buf)) < l.opts.MaxSegmentBytes {
			continue
		}
		if err := l.flush(framed); err != nil {
			return err
		}
		framed = 0
		if syncDue {
			if err := l.Sync(); err != nil {
				return err
			}
		}
		if l.segSize >= l.opts.MaxSegmentBytes {
			if err := l.rotate(l.segIndex + 1); err != nil {
				return err
			}
		}
	}
	return l.flush(framed)
}

// flush writes the records framed in l.buf. Only whole records that reached
// the file count; a write that fails part-way leaves a torn tail for Open.
func (l *Log) flush(records int) error {
	if len(l.buf) == 0 {
		return nil
	}
	written, err := l.seg.Write(l.buf)
	if err != nil {
		cut := written
		for records, written = 0, 0; written < cut; records++ {
			next := written + headerSize + int(binary.BigEndian.Uint16(l.buf[written:]))
			if next > cut {
				break
			}
			written = next
		}
	}
	l.segSize += int64(written)
	l.appended += int64(records)
	l.unsynced += records
	l.buf = l.buf[:0]
	return err
}

// Sync flushes the current segment to stable storage.
func (l *Log) Sync() error {
	if l.seg == nil {
		return nil
	}
	l.unsynced = 0
	return l.seg.Sync()
}

// Close syncs and closes the log.
func (l *Log) Close() error {
	if l.seg == nil {
		return nil
	}
	if err := l.seg.Sync(); err != nil {
		return err
	}
	err := l.seg.Close()
	l.seg = nil
	return err
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// Replay streams every event in the log, in order, to fn. A torn tail in
// the last segment is skipped silently; any other damage returns
// ErrCorrupt.
func Replay(dir string, fn func(event.Event) error) error {
	segs, err := segments(dir)
	if err != nil {
		return err
	}
	for k, i := range segs {
		tail := k == len(segs)-1
		if _, err := scanSegment(filepath.Join(dir, segName(i)), tail, fn); err != nil {
			return fmt.Errorf("segment %d: %w", i, err)
		}
	}
	return nil
}

// scanSegment walks one segment file, verifying framing and checksums and
// invoking fn per event. With tolerateTail set, a short or corrupt record
// at the end is not an error; the returned offset is the end of the valid
// prefix either way.
func scanSegment(path string, tolerateTail bool, fn func(event.Event) error) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var off int64
	for int(off) < len(data) {
		rest := data[off:]
		bad := func() (int64, error) {
			if tolerateTail {
				return off, nil
			}
			return off, fmt.Errorf("%w at offset %d", ErrCorrupt, off)
		}
		if len(rest) < headerSize {
			return bad()
		}
		n := int(binary.BigEndian.Uint16(rest[0:2]))
		want := binary.BigEndian.Uint32(rest[2:6])
		if n == 0 || len(rest) < headerSize+n {
			return bad()
		}
		payload := rest[headerSize : headerSize+n]
		if crc32.Checksum(payload, castagnoli) != want {
			return bad()
		}
		e, used, err := event.Decode(payload)
		if err != nil || used != n {
			if tolerateTail {
				return off, nil
			}
			return off, fmt.Errorf("%w at offset %d: %v", ErrCorrupt, off, err)
		}
		if fn != nil {
			if err := fn(e); err != nil {
				return off, err
			}
		}
		off += int64(headerSize + n)
	}
	return off, nil
}
