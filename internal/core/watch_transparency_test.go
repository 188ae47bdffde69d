package core

import (
	"bytes"
	"testing"

	"spire/internal/cep"
	"spire/internal/event"
	"spire/internal/query"
	"spire/internal/sim"
)

// Watcher transparency: the subscription path is observation-only, like
// telemetry and tracing before it. A run with a watcher attached — filter
// subscribers plus a live cep engine with matching subscriptions, the
// worst case — must be indistinguishable from an unwatched run in the
// event stream, the query store, and the checkpoint bytes.

// watchedEngine builds a watcher with one broad filter subscriber, a cep
// engine holding a match-everything subscription (every event anchors and
// completes, so the engine's full run machinery executes), and a theft
// detector. Returns the watcher, engine, and a counter of filtered events.
func watchedEngine(t *testing.T) (*query.Watcher, *cep.Engine, *int) {
	t.Helper()
	w := query.NewWatcher()
	seen := 0
	w.Subscribe(query.Filter{}, func(event.Event) { seen++ })
	e := cep.NewEngine(cep.Config{})
	if _, err := e.Subscribe("SEQ(any())"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Subscribe(cep.TheftPattern(40)); err != nil {
		t.Fatal(err)
	}
	e.Attach(w)
	return w, e, &seen
}

func testWatchTransparency(t *testing.T, level CompressionLevel) {
	obsTrace, s := buildTrace(t, 150)
	end := obsTrace[len(obsTrace)-1].Time + 1

	run := func(w *query.Watcher) (*Substrate, []event.Event) {
		sub := newSubstrate(t, s, level)
		sub.Watch(w)
		var evs []event.Event
		for _, o := range obsTrace {
			out, err := sub.ProcessBatch(o.Clone())
			if err != nil {
				t.Fatal(err)
			}
			evs = append(evs, out.Events...)
		}
		evs = append(evs, sub.Close(end)...)
		return sub, evs
	}

	plainSub, plainEvs := run(nil)
	w, e, seen := watchedEngine(t)
	watchedSub, watchedEvs := run(w)

	plainBytes := encodeEvents(t, plainEvs)
	if len(plainBytes) == 0 {
		t.Fatal("reference run produced no events")
	}
	if !bytes.Equal(plainBytes, encodeEvents(t, watchedEvs)) {
		t.Fatalf("watched event stream differs (%d vs %d events)",
			len(watchedEvs), len(plainEvs))
	}
	compareStores(t, feedStore(t, watchedEvs), feedStore(t, plainEvs), "watched run")

	zeroWallClock(plainSub)
	zeroWallClock(watchedSub)
	var plainSnap, watchedSnap bytes.Buffer
	if err := plainSub.Snapshot(&plainSnap); err != nil {
		t.Fatal(err)
	}
	if err := watchedSub.Snapshot(&watchedSnap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plainSnap.Bytes(), watchedSnap.Bytes()) {
		t.Fatal("watched checkpoint differs from unwatched checkpoint")
	}

	// Guard against vacuous success: the filter subscriber and the engine
	// must both have actually seen the stream.
	if *seen != len(watchedEvs) {
		t.Errorf("filter subscriber saw %d events, want %d", *seen, len(watchedEvs))
	}
	subs := e.Subscriptions()
	if len(subs) != 2 {
		t.Fatalf("engine lists %d subscriptions, want 2", len(subs))
	}
	var total uint64
	for _, st := range subs {
		total += st.Matches
	}
	if total < uint64(len(watchedEvs)) {
		t.Errorf("engine recorded %d matches over %d events; the any() subscription must match every event",
			total, len(watchedEvs))
	}
}

func TestWatchTransparencyLevel1(t *testing.T) { testWatchTransparency(t, Level1) }
func TestWatchTransparencyLevel2(t *testing.T) { testWatchTransparency(t, Level2) }

// TestGoldenScenariosWatched reruns the golden corpus — both compression
// levels, the reject and repair ingest policies over faulted deliveries —
// with a live watcher and engine, and requires the committed digests to
// hold: subscriptions must not move a single output byte on the runner
// path either.
func TestGoldenScenariosWatched(t *testing.T) {
	if *updateGolden {
		t.Skip("golden digests being rewritten; the unwatched run owns them")
	}
	obsTrace, s := buildTrace(t, 200)
	for _, sc := range goldenScenarios {
		t.Run(sc.name, func(t *testing.T) {
			delivery := obsTrace
			if sc.faults != nil {
				delivery = sim.NewFaultInjector(*sc.faults).Apply(obsTrace)
			}

			plain, _ := runGated(t, newSubstrate(t, s, sc.level),
				RunnerConfig{Ingest: sc.ingest}, delivery)

			w, _, _ := watchedEngine(t)
			sub := newSubstrate(t, s, sc.level)
			sub.Watch(w)
			watched, _ := runGated(t, sub, RunnerConfig{Ingest: sc.ingest}, delivery)

			if !bytes.Equal(encodeEvents(t, plain), encodeEvents(t, watched)) {
				t.Fatalf("%s: watched run changed the golden output stream", sc.name)
			}
		})
	}
}

// TestWatchDispatchZeroAllocs pins the idle-dispatch overhead bar: with
// subscriptions registered but none matching — a filter on an object that
// never appears and a cep pattern anchored on a tag that never occurs —
// delivering a full epoch of events through the watcher and engine
// allocates nothing. This is the cost every pipeline pays per epoch for
// having the subscription surface wired but quiet.
func TestWatchDispatchZeroAllocs(t *testing.T) {
	obsTrace, s := buildTrace(t, 150)
	sub := newSubstrate(t, s, Level2)

	w := query.NewWatcher()
	w.Subscribe(query.Filter{Object: 0xdeadbeef}, func(event.Event) {
		t.Fatal("filter on an absent object must never fire")
	})
	e := cep.NewEngine(cep.Config{})
	if _, err := e.Subscribe("SEQ(any() & tag(3735928559), NOT any()) WITHIN 10"); err != nil {
		t.Fatal(err)
	}
	e.Attach(w)
	sub.Watch(w)

	// Warm through the trace, collecting one representative busy epoch.
	var busy []event.Event
	now := obsTrace[len(obsTrace)-1].Time
	for _, o := range obsTrace {
		out, err := sub.ProcessBatch(o.Clone())
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Events) > len(busy) {
			busy = append(busy[:0], out.Events...)
		}
	}
	if len(busy) == 0 {
		t.Fatal("trace produced no busy epoch")
	}

	allocs := testing.AllocsPerRun(200, func() {
		now++
		w.BeginEpoch(now)
		w.Dispatch(busy...)
		w.EndEpoch(now)
	})
	if allocs != 0 {
		t.Errorf("idle dispatch allocates %.1f allocs/op over %d events, want 0", allocs, len(busy))
	}
}
