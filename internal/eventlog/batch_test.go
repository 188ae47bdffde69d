package eventlog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"spire/internal/event"
)

// appendPerRecord is the per-record writer Append's batching is held to:
// a header write and a payload write per event, with the sync and
// rotation checks after every record.
func appendPerRecord(l *Log, events ...event.Event) error {
	for _, e := range events {
		payload, err := event.Append(nil, e)
		if err != nil {
			return err
		}
		var hdr [headerSize]byte
		binary.BigEndian.PutUint16(hdr[0:2], uint16(len(payload)))
		binary.BigEndian.PutUint32(hdr[2:6], crc32.Checksum(payload, castagnoli))
		if _, err := l.seg.Write(hdr[:]); err != nil {
			return err
		}
		if _, err := l.seg.Write(payload); err != nil {
			return err
		}
		l.segSize += int64(headerSize + len(payload))
		l.appended++
		l.unsynced++
		if l.opts.SyncEvery > 0 && l.unsynced >= l.opts.SyncEvery {
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
	return nil
}

// syncRecorder passes writes through and records the byte offset of
// every Sync.
type syncRecorder struct {
	segment
	written int
	syncs   []int
}

func (r *syncRecorder) Write(p []byte) (int, error) {
	n, err := r.segment.Write(p)
	r.written += n
	return n, err
}

func (r *syncRecorder) Sync() error {
	r.syncs = append(r.syncs, r.written)
	return r.segment.Sync()
}

// readSegments returns every segment file in dir, in order.
func readSegments(t *testing.T, dir string) [][]byte {
	t.Helper()
	segs, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, i := range segs {
		data, err := os.ReadFile(filepath.Join(dir, segName(i)))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

// TestAppendMatchesPerRecordWriter: for every segment cap and sync
// interval, Append writes the same segment files as a write per record,
// rotating at the same records, and syncs the first segment at the same
// offsets.
func TestAppendMatchesPerRecordWriter(t *testing.T) {
	evs := sampleEvents(120)
	batches := [][]event.Event{evs[:1], evs[1:8], evs[8:8], evs[8:28], evs[28:31], evs[31:90], evs[90:]}
	for _, max := range []int64{64, 128, 4096, 0} {
		for _, every := range []int{0, 3} {
			t.Run(fmt.Sprintf("max=%d/sync=%d", max, every), func(t *testing.T) {
				opts := Options{MaxSegmentBytes: max, SyncEvery: every}
				run := func(write func(*Log, ...event.Event) error) ([][]byte, []int, int64) {
					dir := t.TempDir()
					l, err := Open(dir, opts)
					if err != nil {
						t.Fatal(err)
					}
					rec := &syncRecorder{segment: l.seg}
					l.seg = rec
					for _, b := range batches {
						if err := write(l, b...); err != nil {
							t.Fatal(err)
						}
					}
					if err := l.Close(); err != nil {
						t.Fatal(err)
					}
					return readSegments(t, dir), rec.syncs, l.appended
				}
				gotSegs, gotSyncs, gotN := run((*Log).Append)
				wantSegs, wantSyncs, wantN := run(appendPerRecord)
				if len(gotSegs) != len(wantSegs) {
					t.Fatalf("%d segments, per-record writer %d", len(gotSegs), len(wantSegs))
				}
				for i := range wantSegs {
					if !bytes.Equal(gotSegs[i], wantSegs[i]) {
						t.Fatalf("segment %d differs from the per-record writer's", i)
					}
				}
				if !slices.Equal(gotSyncs, wantSyncs) {
					t.Fatalf("first segment synced at %v, per-record writer at %v", gotSyncs, wantSyncs)
				}
				if gotN != wantN || gotN != int64(len(evs)) {
					t.Fatalf("appended = %d, per-record writer %d, events %d", gotN, wantN, len(evs))
				}
			})
		}
	}
}

// recordEnds returns the byte offset after each event's record.
func recordEnds(t *testing.T, evs []event.Event) []int {
	t.Helper()
	var ends []int
	start := 0
	for _, e := range evs {
		payload, err := event.Append(nil, e)
		if err != nil {
			t.Fatal(err)
		}
		start += headerSize + len(payload)
		ends = append(ends, start)
	}
	return ends
}

// wholeBefore counts the records that end at or before cut.
func wholeBefore(ends []int, cut int) int {
	n := 0
	for n < len(ends) && ends[n] <= cut {
		n++
	}
	return n
}

// TestTornBatchRecoversWholeRecords cuts one multi-record Append at every
// byte offset: Replay yields exactly the whole records before the cut,
// and Open truncates the rest and appends after them.
func TestTornBatchRecoversWholeRecords(t *testing.T) {
	evs := sampleEvents(9)
	src := t.TempDir()
	l, err := Open(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(evs[:3]...); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(evs[3:]...); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data := readSegments(t, src)[0]
	ends := recordEnds(t, evs)
	if ends[len(ends)-1] != len(data) {
		t.Fatalf("segment is %d bytes, records end at %d", len(data), ends[len(ends)-1])
	}
	for cut := ends[2]; cut <= len(data); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(0)), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		want := evs[:wholeBefore(ends, cut)]
		if got := replayAll(t, dir); !slices.Equal(got, want) {
			t.Fatalf("cut %d: replayed %d events, want %d", cut, len(got), len(want))
		}
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		if l.segSize != int64(ends[len(want)-1]) {
			t.Fatalf("cut %d: recovered %d bytes, whole records end at %d", cut, l.segSize, ends[len(want)-1])
		}
		if err := l.Append(evs[0]); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if got := replayAll(t, dir); !slices.Equal(got, append(want[:len(want):len(want)], evs[0])) {
			t.Fatalf("cut %d: after reopen replayed %d events, want %d", cut, len(got), len(want)+1)
		}
	}
}

// shortWriter lets room more bytes reach the segment, then fails the
// write that would pass it, after writing what fits.
type shortWriter struct {
	segment
	room int
}

var errInjected = errors.New("injected write failure")

func (w *shortWriter) Write(p []byte) (int, error) {
	if len(p) <= w.room {
		w.room -= len(p)
		return w.segment.Write(p)
	}
	n, _ := w.segment.Write(p[:w.room])
	w.room = 0
	return n, errInjected
}

// TestAppendCountsOnlyWrittenRecords: when a batch's write fails
// part-way, appended counts only the whole records that reached the file,
// and reopening the log recovers exactly those.
func TestAppendCountsOnlyWrittenRecords(t *testing.T) {
	evs := sampleEvents(12)
	ends := recordEnds(t, evs)
	for _, room := range []int{0, 1, headerSize, ends[0], ends[0] + 1, ends[5] - 1, ends[5], ends[11] - 1} {
		dir := t.TempDir()
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		l.seg = &shortWriter{segment: l.seg, room: room}
		if err := l.Append(evs...); !errors.Is(err, errInjected) {
			t.Fatalf("room %d: Append error %v, want the injected failure", room, err)
		}
		whole, size := wholeBefore(ends, room), int64(0)
		if whole > 0 {
			size = int64(ends[whole-1])
		}
		if l.appended != int64(whole) || l.unsynced != whole || l.segSize != size {
			t.Fatalf("room %d: appended = %d, unsynced = %d, segSize = %d; %d whole records (%d bytes) reached the file",
				room, l.appended, l.unsynced, l.segSize, whole, size)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if got := replayAll(t, dir); !slices.Equal(got, evs[:whole]) {
			t.Fatalf("room %d: replayed %d events, want %d", room, len(got), whole)
		}
		l2, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if l2.segSize != size {
			t.Fatalf("room %d: reopened at %d bytes, want %d", room, l2.segSize, size)
		}
		l2.Close()
	}
}

// TestInvalidEventMidBatch: a call with an invalid event writes and
// counts nothing, also when a record before it would fill SyncEvery or
// the segment and flush early. Later calls append as usual.
func TestInvalidEventMidBatch(t *testing.T) {
	for _, opts := range []Options{{}, {SyncEvery: 1}, {MaxSegmentBytes: 1}} {
		dir := t.TempDir()
		l, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		evs := sampleEvents(3)
		if err := l.Append(evs[0], evs[1], event.Event{Kind: event.StartLocation}, evs[2]); err == nil {
			t.Fatalf("%+v: invalid event must be rejected", opts)
		}
		if l.appended != 0 {
			t.Fatalf("%+v: appended = %d after a rejected call, want 0", opts, l.appended)
		}
		if got := replayAll(t, dir); len(got) != 0 {
			t.Fatalf("%+v: a rejected call wrote %v", opts, got)
		}
		if err := l.Append(evs...); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if got := replayAll(t, dir); !slices.Equal(got, evs) {
			t.Fatalf("%+v: replayed %v, want %v", opts, got, evs)
		}
	}
}
