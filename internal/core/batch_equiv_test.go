package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"spire/internal/epc"
	"spire/internal/event"
	"spire/internal/model"
)

// ProcessEpoch is an edge adapter: it stages the observation into a
// substrate-owned batch and hands it to ProcessBatch. These tests pin
// that the adapter adds nothing — same events, query store, snapshots and
// errors as feeding the equivalent batch directly; the golden corpus
// (golden_test.go) pins both against committed SHA-256 digests.

// runTraceBatch mirrors runTraceSnap but feeds ProcessBatch directly,
// converting each observation through a caller-owned reused batch.
func runTraceBatch(t *testing.T, sub *Substrate, trace []*model.Observation, mid int) (perEpoch [][]event.Event, closing []event.Event, midSnap, endSnap []byte) {
	t.Helper()
	var b model.Batch
	perEpoch = make([][]event.Event, len(trace))
	for i, o := range trace {
		out, err := sub.ProcessBatch(b.FromObservation(o))
		if err != nil {
			t.Fatal(err)
		}
		perEpoch[i] = append([]event.Event(nil), out.Events...)
		if i == mid {
			zeroWallClock(sub) // snapshots embed wall-clock stage timings
			var buf bytes.Buffer
			if err := sub.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			midSnap = buf.Bytes()
		}
	}
	closing = sub.Close(trace[len(trace)-1].Time + 1)
	zeroWallClock(sub)
	var buf bytes.Buffer
	if err := sub.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return perEpoch, closing, midSnap, buf.Bytes()
}

// TestProcessEpochAdapterByteIdentity runs one trace through the adapter
// and through ProcessBatch directly — events, query store, mid-run and
// final snapshots must match at both compression levels — and checks that
// a substrate restored from the adapter run's mid-run snapshot replays the
// tail through ProcessBatch identically. The adapter must also leave the
// caller's observation untouched.
func TestProcessEpochAdapterByteIdentity(t *testing.T) {
	trace, s := buildTrace(t, 120)
	mid := len(trace) / 2
	for _, level := range []CompressionLevel{Level1, Level2} {
		t.Run(fmt.Sprintf("level%d", level), func(t *testing.T) {
			ref := newSubstrate(t, s, level)
			refEpochs, refClosing, refMid, refEnd := runTraceSnap(t, ref, trace, mid)
			refFull := flatten(refEpochs, refClosing)
			refBytes := encodeEvents(t, refFull)
			refStore := feedStore(t, refFull)
			if len(refBytes) == 0 {
				t.Fatal("adapter run produced no events")
			}

			sub := newSubstrate(t, s, level)
			perEpoch, closing, midSnap, endSnap := runTraceBatch(t, sub, trace, mid)
			full := flatten(perEpoch, closing)
			if !bytes.Equal(encodeEvents(t, full), refBytes) {
				t.Fatalf("ProcessBatch event stream differs from the adapter's (%d vs %d events)",
					len(full), len(refFull))
			}
			if !bytes.Equal(midSnap, refMid) {
				t.Fatal("mid-run snapshot differs")
			}
			if !bytes.Equal(endSnap, refEnd) {
				t.Fatal("final snapshot differs")
			}
			compareStores(t, feedStore(t, full), refStore, "ProcessBatch")

			rsub, err := RestoreSubstrate(bytes.NewReader(refMid))
			if err != nil {
				t.Fatal(err)
			}
			var b model.Batch
			streamEvs := flatten(refEpochs[:mid+1], nil)
			for _, o := range trace[mid+1:] {
				out, err := rsub.ProcessBatch(b.FromObservation(o))
				if err != nil {
					t.Fatal(err)
				}
				streamEvs = append(streamEvs, out.Events...)
			}
			streamEvs = append(streamEvs, rsub.Close(trace[len(trace)-1].Time+1)...)
			if !bytes.Equal(encodeEvents(t, streamEvs), refBytes) {
				t.Fatal("restore + replay not byte-identical")
			}

			// Dedup and tombstone filtering compact the staged batch, never
			// the observation handed in.
			asub := newSubstrate(t, s, level)
			for _, o := range trace {
				want, readers := o.Readings(), len(o.ByReader)
				if _, err := asub.ProcessEpoch(o); err != nil {
					t.Fatal(err)
				}
				if len(o.ByReader) != readers || !reflect.DeepEqual(o.Readings(), want) {
					t.Fatalf("epoch %d: ProcessEpoch modified its observation", o.Time)
				}
			}
		})
	}
}

// TestProcessBatchErrorParity pins the error contract on both entry
// points: nil-input, non-monotonic-epoch, and unknown-reader errors read
// the same through the adapter as through ProcessBatch, with known
// readers' groups already applied when the unknown-reader error surfaces.
func TestProcessBatchErrorParity(t *testing.T) {
	s := fastSim(t, nil)
	sub := newSubstrate(t, s, Level1)

	if _, err := sub.ProcessBatch(nil); err == nil {
		t.Fatal("nil batch must error")
	}
	if _, err := sub.ProcessEpoch(nil); err == nil {
		t.Fatal("nil observation must error")
	}

	known := s.Readers()[0]
	item := epc.MustEncode(epc.Identity{Level: model.LevelItem, Company: 9, Serial: 1})
	b := model.NewBatch(1)
	b.BeginReader(known.ID)
	b.Append(item)
	b.BeginReader(known.ID + 1000) // not deployed
	b.Append(item)
	_, err := sub.ProcessBatch(b)
	want := fmt.Sprintf("core: reading from unknown reader %d", known.ID+1000)
	if err == nil || err.Error() != want {
		t.Fatalf("unknown reader: got %v, want %q", err, want)
	}
	if n := sub.Graph().Node(item); n == nil {
		t.Fatal("known reader's group must be applied before the unknown-reader error")
	}

	// The failed epoch still consumed its timestamp.
	b2 := model.NewBatch(1)
	_, err = sub.ProcessBatch(b2)
	if err == nil {
		t.Fatal("non-monotonic epoch must error")
	}
	if _, aerr := sub.ProcessEpoch(model.NewObservation(1)); aerr == nil || aerr.Error() != err.Error() {
		t.Fatalf("adapter non-monotonic error %v, batch %v", aerr, err)
	}

	asub := newSubstrate(t, s, Level1)
	o := model.NewObservation(1)
	o.Add(known.ID, item)
	o.Add(known.ID+1000, item)
	if _, err := asub.ProcessEpoch(o); err == nil || err.Error() != want {
		t.Fatalf("adapter unknown reader: got %v, want %q", err, want)
	}
	if n := asub.Graph().Node(item); n == nil {
		t.Fatal("adapter: known reader's group must be applied before the unknown-reader error")
	}

	bad := model.NewBatch(2)
	bad.BeginReader(5)
	bad.Groups[0].End = 7 // offsets no longer cover the tag column
	if _, err := sub.ProcessBatch(bad); err == nil {
		t.Fatal("invalid batch must error")
	}
}
