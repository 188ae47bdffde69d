package eventlog

import (
	"os"
	"path/filepath"
	"testing"

	"spire/internal/event"
	"spire/internal/model"
)

func sampleEvents(n int) []event.Event {
	out := make([]event.Event, 0, n)
	for i := 0; i < n; i++ {
		obj := model.Tag(i + 1)
		switch i % 3 {
		case 0:
			out = append(out, event.NewStartLocation(obj, model.LocationID(i%4), model.Epoch(i)))
		case 1:
			out = append(out, event.NewEndLocation(obj, model.LocationID(i%4), model.Epoch(i), model.Epoch(i+5)))
		default:
			out = append(out, event.NewStartContainment(obj, obj+1000, model.Epoch(i)))
		}
	}
	return out
}

func replayAll(t *testing.T, dir string) []event.Event {
	t.Helper()
	var got []event.Event
	if err := Replay(dir, func(e event.Event) error {
		got = append(got, e)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := sampleEvents(100)
	if err := l.Append(want...); err != nil {
		t.Fatal(err)
	}
	if l.appended != 100 {
		t.Errorf("appended = %d, want 100", l.appended)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, dir)
	if len(got) != len(want) {
		t.Fatalf("replayed %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{MaxSegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(sampleEvents(50)...); err != nil {
		t.Fatal(err)
	}
	if l.segIndex == 0 {
		t.Error("tiny segment cap must have rotated")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("expected multiple segments, got %v", segs)
	}
	if got := replayAll(t, dir); len(got) != 50 {
		t.Fatalf("replayed %d events across segments, want 50", len(got))
	}
}

func TestReopenAppends(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	evs := sampleEvents(20)
	if err := l.Append(evs[:10]...); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(evs[10:]...); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, dir)
	if len(got) != 20 {
		t.Fatalf("replayed %d, want 20", len(got))
	}
	for i := range evs {
		if got[i] != evs[i] {
			t.Errorf("event %d mismatch after reopen", i)
		}
	}
}

func TestTornTailRecovered(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	evs := sampleEvents(10)
	if err := l.Append(evs...); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the final record: chop a few bytes off the segment.
	path := filepath.Join(dir, segName(0))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	// Replay silently drops the torn record.
	if got := replayAll(t, dir); len(got) != 9 {
		t.Fatalf("replayed %d after tear, want 9", len(got))
	}
	// Reopen truncates the tear and appending resumes cleanly.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(evs[9]); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, dir); len(got) != 10 {
		t.Fatalf("replayed %d after recovery, want 10", len(got))
	}
}

func TestBitrotDetected(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{MaxSegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(sampleEvents(30)...); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in the FIRST segment (not the tail): must be
	// reported, not silently dropped.
	path := filepath.Join(dir, segName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerSize+2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Replay(dir, func(event.Event) error { return nil }); err == nil {
		t.Fatal("mid-log corruption must fail replay")
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("mid-log corruption must fail open")
	}
}

func TestSyncEvery(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SyncEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(sampleEvents(10)...); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, dir); len(got) != 10 {
		t.Fatalf("replayed %d, want 10", len(got))
	}
}

func TestClosedLogRejectsAppend(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(sampleEvents(1)...); err == nil {
		t.Fatal("append to a closed log must fail")
	}
	if err := l.Close(); err != nil {
		t.Fatal("double close must be a no-op")
	}
	if err := l.Sync(); err != nil {
		t.Fatal("sync on closed log must be a no-op")
	}
}

func TestInvalidEventRejected(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(event.Event{Kind: event.StartLocation}); err == nil {
		t.Fatal("invalid event must be rejected before hitting disk")
	}
}

func TestReplayCallbackError(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(sampleEvents(5)...); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	calls := 0
	err = Replay(dir, func(event.Event) error {
		calls++
		if calls == 3 {
			return os.ErrClosed
		}
		return nil
	})
	if err == nil {
		t.Fatal("callback error must propagate")
	}
	if calls != 3 {
		t.Fatalf("callback ran %d times, want 3", calls)
	}
}

func TestOpenEmptyDirCreatesSegment(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fresh")
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.segIndex != 0 || l.Dir() != dir {
		t.Errorf("fresh log segment=%d dir=%q", l.segIndex, l.Dir())
	}
	if got := replayAll(t, dir); len(got) != 0 {
		t.Errorf("fresh log replayed %d events", len(got))
	}
}
