package cep

import (
	"fmt"
	"runtime"
	"testing"

	"spire/internal/epc"
	"spire/internal/event"
	"spire/internal/model"
)

// benchTags builds a deterministic case population for the dispatch
// benchmarks.
func benchTags(n int) []model.Tag {
	seq, err := epc.NewSequencer(7)
	if err != nil {
		panic(err)
	}
	tags := make([]model.Tag, n)
	for i := range tags {
		g, err := seq.Next(model.LevelCase)
		if err != nil {
			panic(err)
		}
		tags[i] = g
	}
	return tags
}

// benchStream synthesizes an epoch-batched stream shaped like the
// pipeline's output: location churn across a shelf range, containment
// open/close pairs, and periodic missing reports over a rotating case
// population. Deterministic, no rng.
func benchStream(epochs int, tags []model.Tag) (batches [][]event.Event, times []model.Epoch, total int) {
	for e := 1; e <= epochs; e++ {
		now := model.Epoch(e)
		var evs []event.Event
		for k := 0; k < 4; k++ {
			g := tags[(e*4+k)%len(tags)]
			loc := model.LocationID(2 + (e+k)%8)
			evs = append(evs,
				event.NewEndLocation(g, loc, now-3, now),
				event.NewStartLocation(g, loc+1, now),
			)
		}
		if e%3 == 0 {
			g := tags[(e*7)%len(tags)]
			evs = append(evs, event.NewMissing(g, model.LocationID(2+e%8), now))
		}
		if e%5 == 0 {
			g := tags[(e*11)%len(tags)]
			c := tags[(e*11+1)%len(tags)]
			evs = append(evs,
				event.NewStartContainment(g, c, now),
				event.NewEndContainment(g, c, now-1, now),
			)
		}
		batches = append(batches, evs)
		times = append(times, now)
		total += len(evs)
	}
	return batches, times, total
}

// TestEpochIdleZeroAllocs pins the idle-dispatch overhead bar: with
// subscriptions registered but none matching — patterns anchored on a
// tag that never occurs — feeding the engine a busy epoch allocates
// nothing. This is the cost every pipeline pays per epoch for having the
// subscription surface wired but quiet.
func TestEpochIdleZeroAllocs(t *testing.T) {
	tags := benchTags(512)
	e := NewEngine(Config{})
	for _, src := range []string{
		"SEQ(any() & tag(3735928559), NOT any()) WITHIN 10",
		"SEQ(missing() & tag(3735928559), start()) WITHIN 60",
	} {
		if _, err := e.Subscribe(src); err != nil {
			t.Fatal(err)
		}
	}
	batches, _, total := benchStream(64, tags)
	busy := make([]event.Event, 0, total)
	for _, b := range batches {
		busy = append(busy, b...)
	}
	var now model.Epoch
	allocs := testing.AllocsPerRun(200, func() {
		now++
		e.Epoch(now, busy)
	})
	if allocs != 0 {
		t.Errorf("idle Epoch allocates %.1f allocs/op over %d events, want 0", allocs, len(busy))
	}
}

// benchSources returns n tag-anchored subscriptions of the two shapes
// the end-to-end benchmark's warehouse_flow registers, cycling over tags.
func benchSources(n int, tags []model.Tag) []string {
	srcs := make([]string, n)
	for i := range srcs {
		g := tags[i%len(tags)]
		if i%2 == 0 {
			srcs[i] = fmt.Sprintf("SEQ(missing() & tag(%d), NOT start()) WITHIN 60", g)
		} else {
			srcs[i] = fmt.Sprintf("SEQ(start() & tag(%d) & level(case), NOT end()) WITHIN 80", g)
		}
	}
	return srcs
}

// TestSubscriptionFootprint bounds what a subscription holds once
// registered: 10 000 tag-anchored subscriptions of the two benchmark
// shapes, each on its own tag, share two templates, so a subscription
// costs its row, its constant and its anchor-index entry.
func TestSubscriptionFootprint(t *testing.T) {
	const n, maxBytes = 10_000, 200
	srcs := benchSources(n, benchTags(n))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e := NewEngine(Config{})
	for _, src := range srcs {
		if _, err := e.SubscribeFunc(src, func(Match) {}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	runtime.KeepAlive(e)
	runtime.KeepAlive(srcs)
	t.Logf("%d subscriptions: %d B each", n, per)
	if per > maxBytes {
		t.Errorf("%d subscriptions hold %d B each, want at most %d", n, per, maxBytes)
	}
	if len(e.tmpls) != 2 {
		t.Errorf("%d templates for the two shapes, want 2", len(e.tmpls))
	}
}

// BenchmarkSubscribe10k registers the 10k-subscription dispatch load
// into a fresh engine.
func BenchmarkSubscribe10k(b *testing.B) {
	srcs := benchSources(10_000, benchTags(512))
	b.ReportAllocs()
	for b.Loop() {
		e := NewEngine(Config{})
		for _, src := range srcs {
			if _, err := e.Subscribe(src); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchDispatch drives the engine over the synthetic stream with the
// given per-object alerting load, reporting ns/event. The clock shifts
// each full pass so windows keep expiring and the measurement includes
// steady-state run turnover.
func benchDispatch(b *testing.B, subs int) {
	tags := benchTags(512)
	e := NewEngine(Config{})
	for _, src := range benchSources(subs, tags) {
		if _, err := e.Subscribe(src); err != nil {
			b.Fatal(err)
		}
	}
	batches, times, _ := benchStream(256, tags)
	span := times[len(times)-1] + 1
	var offset model.Epoch
	var events int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := i % len(batches)
		e.Epoch(times[idx]+offset, batches[idx])
		events += int64(len(batches[idx]))
		if idx == len(batches)-1 {
			offset += span
		}
	}
	b.StopTimer()
	if events > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	}
}

func BenchmarkCEPDispatchIdle(b *testing.B)    { benchDispatch(b, 0) }
func BenchmarkCEPDispatch1kSubs(b *testing.B)  { benchDispatch(b, 1_000) }
func BenchmarkCEPDispatch10kSubs(b *testing.B) { benchDispatch(b, 10_000) }

// The 100k row exists because of the per-(kind, tag) anchor index: the
// subscriptions here all name a tag in their first step, so dispatch
// probes the tag map and visits only the event's own watchers instead
// of rejecting every other subscription one by one. Cost per event
// should track the watchers-per-tag ratio (subs / population), not the
// raw subscription count.
func BenchmarkCEPDispatch100kSubs(b *testing.B) { benchDispatch(b, 100_000) }
