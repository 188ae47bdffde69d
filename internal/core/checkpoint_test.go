package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"spire/internal/checkpoint"
	"spire/internal/event"
	"spire/internal/model"
	"spire/internal/query"
	"spire/internal/sim"
)

// buildTrace steps a fast warehouse trace and returns the per-epoch
// batches along with the simulator (whose Readers/Locations describe the
// deployment). Batches are returned pristine — feed clones to the
// substrate, which consumes them destructively.
func buildTrace(t *testing.T, duration model.Epoch) ([]*model.Batch, *sim.Simulator) {
	t.Helper()
	s := fastSim(t, func(c *sim.Config) { c.Duration = duration })
	var trace []*model.Batch
	for !s.Done() {
		o, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		trace = append(trace, o)
	}
	return trace, s
}

// encodeEvents renders an event stream in the binary wire format so
// streams can be compared byte for byte.
func encodeEvents(t *testing.T, evs []event.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := event.NewWriter(&buf)
	for _, e := range evs {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// feedStore indexes an event stream into a fresh query store.
func feedStore(t *testing.T, evs []event.Event) *query.Store {
	t.Helper()
	st := query.NewStore()
	if err := st.Feed(evs...); err != nil {
		t.Fatal(err)
	}
	return st
}

// compareStores deep-compares the queryable contents of two stores.
func compareStores(t *testing.T, got, want *query.Store, ctx string) {
	t.Helper()
	gobjs, wobjs := got.Objects(), want.Objects()
	if !reflect.DeepEqual(gobjs, wobjs) {
		t.Fatalf("%s: object sets differ: %d vs %d objects", ctx, len(gobjs), len(wobjs))
	}
	for _, obj := range wobjs {
		if !reflect.DeepEqual(got.History(obj), want.History(obj)) {
			t.Fatalf("%s: object %d history differs:\ngot:  %v\nwant: %v",
				ctx, obj, got.History(obj), want.History(obj))
		}
		if !reflect.DeepEqual(got.Containments(obj), want.Containments(obj)) {
			t.Fatalf("%s: object %d containments differ:\ngot:  %v\nwant: %v",
				ctx, obj, got.Containments(obj), want.Containments(obj))
		}
		if !reflect.DeepEqual(got.MissingReports(obj), want.MissingReports(obj)) {
			t.Fatalf("%s: object %d missing reports differ", ctx, obj)
		}
	}
}

// testKillRestoreSweep is the keystone test: run a trace once
// uninterrupted, snapshotting after every epoch; then, for every epoch k,
// pretend the process died right after the epoch-k checkpoint, restore
// from it, and replay the rest. The concatenated event stream must be
// byte-identical to the uninterrupted run — compressor open intervals,
// graph memory, dedup history, tombstones and all — and the query store
// built from it must match exactly.
func testKillRestoreSweep(t *testing.T, level CompressionLevel) {
	trace, s := buildTrace(t, 150)
	newSub := func() *Substrate { return newSubstrate(t, s, level) }

	// Uninterrupted reference run, with a snapshot after every epoch.
	sub := newSub()
	perEpoch := make([][]event.Event, len(trace))
	snaps := make([][]byte, len(trace))
	for i, o := range trace {
		out, err := sub.ProcessBatch(o.Clone())
		if err != nil {
			t.Fatal(err)
		}
		perEpoch[i] = append([]event.Event(nil), out.Events...)
		var buf bytes.Buffer
		if err := sub.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		snaps[i] = buf.Bytes()
	}
	end := trace[len(trace)-1].Time + 1
	closing := sub.Close(end)

	var full []event.Event
	for _, evs := range perEpoch {
		full = append(full, evs...)
	}
	full = append(full, closing...)
	fullBytes := encodeEvents(t, full)
	refStore := feedStore(t, full)
	if len(fullBytes) == 0 {
		t.Fatal("reference run produced no events")
	}

	// Snapshot determinism: same state must give the same bytes.
	var again bytes.Buffer
	if err := sub.Snapshot(&again); err != nil {
		t.Fatal(err)
	}
	var again2 bytes.Buffer
	if err := sub.Snapshot(&again2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), again2.Bytes()) {
		t.Fatal("back-to-back snapshots of identical state differ")
	}

	for k := range trace {
		rsub, err := RestoreSubstrate(bytes.NewReader(snaps[k]))
		if err != nil {
			t.Fatalf("kill at epoch %d: restore: %v", trace[k].Time, err)
		}
		if rsub.LastEpoch() != trace[k].Time {
			t.Fatalf("kill at epoch %d: restored LastEpoch %d", trace[k].Time, rsub.LastEpoch())
		}
		// Restore must be lossless: re-snapshotting the restored substrate
		// reproduces the snapshot bytes exactly (graph, dedup, compressor
		// open intervals included).
		var resnap bytes.Buffer
		if err := rsub.Snapshot(&resnap); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resnap.Bytes(), snaps[k]) {
			t.Fatalf("kill at epoch %d: snapshot of restored substrate differs from original", trace[k].Time)
		}

		var stream []event.Event
		for i := 0; i <= k; i++ {
			stream = append(stream, perEpoch[i]...)
		}
		for _, o := range trace[k+1:] {
			out, err := rsub.ProcessBatch(o.Clone())
			if err != nil {
				t.Fatalf("kill at epoch %d: continue: %v", trace[k].Time, err)
			}
			stream = append(stream, out.Events...)
		}
		stream = append(stream, rsub.Close(end)...)
		if !bytes.Equal(encodeEvents(t, stream), fullBytes) {
			t.Fatalf("kill at epoch %d: restored run not byte-identical (%d vs %d events)",
				trace[k].Time, len(stream), len(full))
		}
		compareStores(t, feedStore(t, stream), refStore, fmt.Sprintf("kill at epoch %d", trace[k].Time))
	}
}

func TestKillRestoreSweepLevel1(t *testing.T) { testKillRestoreSweep(t, Level1) }
func TestKillRestoreSweepLevel2(t *testing.T) { testKillRestoreSweep(t, Level2) }

// TestSnapshotCorruption damages a valid snapshot every which way and
// checks that restore fails cleanly — an error, never a panic, never a
// partially restored substrate.
func TestSnapshotCorruption(t *testing.T) {
	trace, s := buildTrace(t, 80)
	sub := newSubstrate(t, s, Level2)
	for _, o := range trace {
		if _, err := sub.ProcessBatch(o.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := sub.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()

	if _, err := RestoreSubstrate(bytes.NewReader(snap)); err != nil {
		t.Fatalf("pristine snapshot must restore: %v", err)
	}

	// Truncations at every prefix length (stride keeps it fast).
	for cut := 0; cut < len(snap); cut += 7 {
		if _, err := RestoreSubstrate(bytes.NewReader(snap[:cut])); err == nil {
			t.Fatalf("truncation at %d bytes must fail", cut)
		}
	}
	// Bit flips across the file.
	for off := 0; off < len(snap); off += 11 {
		dam := append([]byte(nil), snap...)
		dam[off] ^= 0x40
		if _, err := RestoreSubstrate(bytes.NewReader(dam)); err == nil {
			t.Fatalf("bit flip at offset %d must fail", off)
		}
	}
	// Wrong magic and future version must be identified as such.
	dam := append([]byte(nil), snap...)
	dam[0] ^= 0xFF
	if _, err := RestoreSubstrate(bytes.NewReader(dam)); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Errorf("bad magic: got %v, want ErrCorrupt", err)
	}
	dam = append([]byte(nil), snap...)
	dam[8], dam[9] = 0xFF, 0xFF
	if _, err := RestoreSubstrate(bytes.NewReader(dam)); !errors.Is(err, checkpoint.ErrVersion) {
		t.Errorf("future version: got %v, want ErrVersion", err)
	}
}

// TestOldSnapshotVersionsRejected: each testdata/v<N>.snapshot holds 30
// epochs of a small level-2 warehouse, written by the format-N encoder —
// v1 with fixed 8-byte integers, v2 with varints and the wall-clock stage
// times. This build keeps no older decoder, so each must be refused as a
// version mismatch, not misread as a corrupt body.
func TestOldSnapshotVersionsRejected(t *testing.T) {
	for _, name := range []string{"v1.snapshot", "v2.snapshot"} {
		_, err := RestoreSubstrateFromFile(filepath.Join("testdata", name))
		if !errors.Is(err, checkpoint.ErrVersion) || errors.Is(err, checkpoint.ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrVersion", name, err)
		}
	}
}

// TestRunnerCheckpointResume drives the runner end to end: checkpoint
// every N epochs, cancel mid-run right after a checkpoint boundary (the
// "kill"), restore from the file, and resume with the input replayed
// from its beginning, skipping the epochs the snapshot already processed
// as spire's feeder does. The concatenated output must be byte-identical
// to an uninterrupted runner pass.
func TestRunnerCheckpointResume(t *testing.T) {
	trace, s := buildTrace(t, 120)
	ckpt := filepath.Join(t.TempDir(), "state.ckpt")
	const killAfter = 60 // multiple of CheckpointEvery below

	// Uninterrupted reference pass.
	want := runDelivery(t, newSubstrate(t, s, Level1), RunnerConfig{}, trace)

	// Killed pass: process the first killAfter epochs, then cancel.
	sub := newSubstrate(t, s, Level1)
	runner := NewRunner(sub, RunnerConfig{CheckpointPath: ckpt, CheckpointEvery: 10})
	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan *model.Batch)
	out := make(chan *EpochOutput, 1)
	errc := make(chan error, 1)
	go func() { errc <- runner.Run(ctx, in, out) }()
	var got []event.Event
	for _, o := range trace[:killAfter] {
		in <- o.Clone()
		po := <-out
		got = append(got, po.Events...)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run: %v", err)
	}

	// Resume from the checkpoint with the input replayed past the
	// already-processed epochs.
	rsub, err := RestoreSubstrateFromFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if rsub.LastEpoch() != trace[killAfter-1].Time {
		t.Fatalf("checkpoint at epoch %d, want %d", rsub.LastEpoch(), trace[killAfter-1].Time)
	}
	var rest []*model.Batch
	for _, o := range trace {
		if o.Time > rsub.LastEpoch() {
			rest = append(rest, o)
		}
	}
	if len(rest) != len(trace)-killAfter {
		t.Fatalf("skipped %d epochs, want %d", len(trace)-len(rest), killAfter)
	}
	got = append(got, runDelivery(t, rsub, RunnerConfig{CheckpointPath: ckpt, CheckpointEvery: 10}, rest)...)

	if !bytes.Equal(encodeEvents(t, got), encodeEvents(t, want)) {
		t.Fatalf("resumed stream not byte-identical: %d vs %d events", len(got), len(want))
	}

	// The final checkpoint written at clean end of input restores to the
	// last epoch.
	final, err := RestoreSubstrateFromFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if final.LastEpoch() != trace[len(trace)-1].Time {
		t.Errorf("final checkpoint at epoch %d, want %d", final.LastEpoch(), trace[len(trace)-1].Time)
	}
}

// TestWriteFileAtomic checks the crash-safety contract of checkpoint
// files: a failed write leaves no file (and no temp droppings) behind.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.ckpt")
	if err := checkpoint.WriteFileAtomic(path, func(w io.Writer) error {
		return errors.New("boom")
	}); err == nil {
		t.Fatal("write error must propagate")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("failed atomic write left %d files behind", len(entries))
	}
}
