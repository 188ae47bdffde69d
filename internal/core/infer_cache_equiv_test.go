package core

import (
	"bytes"
	"fmt"
	"testing"

	"spire/internal/event"
	"spire/internal/inference"
	"spire/internal/model"
	"spire/internal/sim"
)

// The settled-slab cache is a runtime tuning knob: with it on or off the
// substrate must emit a byte-identical event stream, build an identical
// query store, and write byte-identical snapshots. These tests pin that
// end to end against the cache-off run, including across a mid-run
// checkpoint/restore (a restored substrate always has the cache on).

func newTunedSubstrate(t *testing.T, s *sim.Simulator, level CompressionLevel, disableCache bool) *Substrate {
	t.Helper()
	icfg := inference.DefaultConfig()
	icfg.DisableCache = disableCache
	sub, err := New(Config{
		Readers:     s.Readers(),
		Locations:   s.Locations(),
		Inference:   icfg,
		Compression: level,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

// runTraceSnap processes a whole trace, returning the per-epoch event
// slices, the closing events, and the snapshot taken right after epoch
// index mid and at the end.
func runTraceSnap(t *testing.T, sub *Substrate, trace []*model.Observation, mid int) (perEpoch [][]event.Event, closing []event.Event, midSnap, endSnap []byte) {
	t.Helper()
	perEpoch = make([][]event.Event, len(trace))
	for i, o := range trace {
		out, err := sub.ProcessEpoch(o.Clone())
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

func flatten(perEpoch [][]event.Event, closing []event.Event) []event.Event {
	var full []event.Event
	for _, evs := range perEpoch {
		full = append(full, evs...)
	}
	return append(full, closing...)
}

// TestInferCacheByteIdentity is the end-to-end determinism pin of the
// component-skipping inference pass: the cache-on run reproduces the
// cache-off run bit for bit at both compression levels.
func TestInferCacheByteIdentity(t *testing.T) {
	trace, s := buildTrace(t, 120)
	mid := len(trace) / 2
	for _, level := range []CompressionLevel{Level1, Level2} {
		t.Run(fmt.Sprintf("level%d", level), func(t *testing.T) {
			base := newTunedSubstrate(t, s, level, true)
			refEpochs, refClosing, refMid, refEnd := runTraceSnap(t, base, trace, mid)
			refFull := flatten(refEpochs, refClosing)
			refBytes := encodeEvents(t, refFull)
			refStore := feedStore(t, refFull)
			if len(refBytes) == 0 {
				t.Fatal("reference run produced no events")
			}

			sub := newTunedSubstrate(t, s, level, false)
			perEpoch, closing, midSnap, endSnap := runTraceSnap(t, sub, trace, mid)
			full := flatten(perEpoch, closing)
			if !bytes.Equal(encodeEvents(t, full), refBytes) {
				t.Fatalf("cache on: event stream differs from cache-off run (%d vs %d events)",
					len(full), len(refFull))
			}
			// DisableCache is runtime tuning, never state: snapshots must
			// be byte-identical mid-run and at the end.
			if !bytes.Equal(midSnap, refMid) {
				t.Fatal("cache on: mid-run snapshot differs from reference")
			}
			if !bytes.Equal(endSnap, refEnd) {
				t.Fatal("cache on: final snapshot differs from reference")
			}
			compareStores(t, feedStore(t, full), refStore, "cache on")

			// Restore from the mid-run snapshot and replay the tail: the
			// combined stream must still match the uninterrupted run.
			rsub, err := RestoreSubstrate(bytes.NewReader(refMid))
			if err != nil {
				t.Fatal(err)
			}
			stream := flatten(refEpochs[:mid+1], nil)
			for _, o := range trace[mid+1:] {
				out, err := rsub.ProcessEpoch(o.Clone())
				if err != nil {
					t.Fatal(err)
				}
				stream = append(stream, out.Events...)
			}
			stream = append(stream, rsub.Close(trace[len(trace)-1].Time+1)...)
			if !bytes.Equal(encodeEvents(t, stream), refBytes) {
				t.Fatal("restore + replay not byte-identical")
			}
		})
	}
}

// FuzzInferCacheEquivalence drives fault-injected delivery sequences
// (dropout bursts, duplicates, swaps, lost epochs) through the repairing
// ingest gate into a cache-off and a cache-on substrate and demands
// identical output streams and snapshots. The faults come from the fuzzed
// parameters, so the fuzzer explores the space of broken reader feeds.
func FuzzInferCacheEquivalence(f *testing.F) {
	cfg := sim.DefaultConfig()
	cfg.Duration = 80
	cfg.PalletInterval = 40
	cfg.ItemsPerCase = 3
	cfg.ShelfTime = 60
	cfg.ShelfPeriod = 10
	s, err := sim.New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	var trace []*model.Observation
	for !s.Done() {
		o, err := s.Step()
		if err != nil {
			f.Fatal(err)
		}
		trace = append(trace, o)
	}

	f.Add(int64(1), byte(0), byte(0), byte(0), byte(0), byte(0))
	f.Add(int64(2), byte(30), byte(30), byte(10), byte(10), byte(3))
	f.Add(int64(3), byte(60), byte(0), byte(25), byte(7), byte(2))
	f.Add(int64(4), byte(0), byte(60), byte(0), byte(15), byte(5))
	f.Fuzz(func(t *testing.T, seed int64, dup, swap, drop, burstEvery, burstLen byte) {
		fcfg := sim.FaultConfig{
			Seed:          seed,
			DuplicateRate: float64(dup%64) / 100,
			SwapRate:      float64(swap%64) / 100,
			DropEpochRate: float64(drop%32) / 100,
			DropoutEvery:  model.Epoch(burstEvery % 20),
			DropoutLen:    model.Epoch(burstLen % 5),
		}
		delivery := sim.NewFaultInjector(fcfg).Apply(trace)
		rcfg := RunnerConfig{Ingest: IngestConfig{Policy: IngestRepair}}

		var refEvents []byte
		var refSnap []byte
		for _, disableCache := range []bool{true, false} {
			sub := newTunedSubstrate(t, s, Level2, disableCache)
			evs, _ := runGated(t, sub, rcfg, delivery)
			got := encodeEvents(t, evs)
			zeroWallClock(sub) // snapshots embed wall-clock stage timings
			var snap bytes.Buffer
			if err := sub.Snapshot(&snap); err != nil {
				t.Fatal(err)
			}
			if disableCache {
				refEvents, refSnap = got, snap.Bytes()
				continue
			}
			if !bytes.Equal(got, refEvents) {
				t.Fatal("cache on: faulted stream output differs from cache-off run")
			}
			if !bytes.Equal(snap.Bytes(), refSnap) {
				t.Fatal("cache on: snapshot after faulted stream differs")
			}
		}
	})
}
