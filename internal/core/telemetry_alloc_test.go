package core

import (
	"testing"
	"time"

	"spire/internal/inference"
	"spire/internal/model"
	"spire/internal/sim"
	"spire/internal/telemetry"
	"spire/internal/trace"
)

// The telemetry overhead contract: recording is atomic stores and array
// increments, so instrumenting the per-epoch hot loop — graph update,
// complete inference, conflict resolution — adds zero allocations per
// epoch. Pinned two ways: the recording calls ProcessBatch makes are
// 0 allocs/op in absolute terms, and the hot loop's Allocs/op is
// identical with telemetry on and off.

// warmInstrumented processes a full trace so every internal buffer has
// reached steady state, then returns the substrate and a steady-state
// batch to replay.
func warmInstrumented(tb testing.TB) (*Substrate, *model.Batch) {
	tb.Helper()
	cfg := sim.DefaultConfig()
	cfg.Duration = 200
	cfg.PalletInterval = 40
	cfg.ItemsPerCase = 3
	cfg.ShelfTime = 60
	cfg.ShelfPeriod = 10
	s, err := sim.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	sub, err := New(Config{
		Readers:     s.Readers(),
		Locations:   s.Locations(),
		Inference:   inference.DefaultConfig(),
		Compression: Level2,
	})
	if err != nil {
		tb.Fatal(err)
	}
	sub.Instrument(telemetry.NewRegistry())
	var last model.Batch
	for !s.Done() {
		o, err := s.Step()
		if err != nil {
			tb.Fatal(err)
		}
		last.FromObservation(o)
		if _, err := sub.ProcessEpoch(o); err != nil {
			tb.Fatal(err)
		}
	}
	return sub, &last
}

// hotEpoch replays one epoch of the hot loop against the warm substrate,
// with the same stage sequence and the same tel/rec gating as
// ProcessBatch. Nil tel and rec is the unobserved baseline.
func hotEpoch(tb testing.TB, sub *Substrate, b *model.Batch, now model.Epoch, tel *Instruments, rec *trace.Recorder) {
	timed := tel != nil || rec != nil
	var mark time.Time
	if timed {
		mark = time.Now()
	}
	var span trace.Span
	if rec != nil {
		rec.BeginEpoch(now)
		span.Epoch = now
		span.Readings = int64(b.Total())
	}
	b.Time = now
	readers := sub.groupReaders[:0]
	for i := range b.Groups {
		readers = append(readers, sub.readers[b.Groups[i].Reader])
	}
	sub.groupReaders = readers
	if err := sub.graph.UpdateBatch(b, readers); err != nil {
		tb.Fatal(err)
	}
	if timed {
		next := time.Now()
		d := next.Sub(mark)
		if tel != nil {
			tel.StageUpdate.Observe(d.Seconds())
		}
		span.UpdateNS = d.Nanoseconds()
		mark = next
	}
	res := sub.inf.Infer(sub.graph, now, inference.Complete)
	if timed {
		next := time.Now()
		d := next.Sub(mark)
		if tel != nil {
			tel.StageInfer.Observe(d.Seconds())
		}
		span.InferNS = d.Nanoseconds()
		mark = next
	}
	inference.ResolveConflictsTraced(res, levelOf, rec)
	if timed {
		d := time.Since(mark)
		if tel != nil {
			tel.StageConflict.Observe(d.Seconds())
		}
		span.ConflictNS = d.Nanoseconds()
	}
	if tel != nil {
		tel.Epochs.Inc()
		tel.Readings.Add(int64(b.Total()))
		ist := sub.InferStats()
		tel.InferDirty.Add(int64(ist.DirtyComponents))
		tel.InferClean.Add(int64(ist.CleanComponents))
		tel.InferNodesRun.Add(int64(ist.NodesInferred))
		tel.InferNodesCached.Add(int64(ist.NodesCached))
		tel.Graph.Record(sub.graph)
		openLocs, openConts := sub.comp.Opens()
		tel.Comp.Record(openLocs, openConts, 0, 0)
	}
	if rec != nil {
		rec.EndEpoch(span)
	}
}

// TestInstrumentedHotPathAllocs pins the zero-overhead bar: every
// recording call ProcessBatch makes is allocation-free, and instrumenting
// the hot loop does not change its Allocs/op at all.
func TestInstrumentedHotPathAllocs(t *testing.T) {
	sub, o := warmInstrumented(t)
	tel := sub.tel
	now := sub.LastEpoch()

	// The full set of per-epoch recording calls, in absolute terms.
	recording := testing.AllocsPerRun(200, func() {
		tel.StageDedup.Observe(0.001)
		tel.StageUpdate.Observe(0.001)
		tel.StageInfer.Observe(0.001)
		tel.StageConflict.Observe(0.001)
		tel.StageCompress.Observe(0.001)
		tel.Epochs.Inc()
		tel.Readings.Add(int64(o.Total()))
		tel.Retired.Add(0)
		ist := sub.InferStats()
		tel.InferDirty.Add(int64(ist.DirtyComponents))
		tel.InferClean.Add(int64(ist.CleanComponents))
		tel.InferNodesRun.Add(int64(ist.NodesInferred))
		tel.InferNodesCached.Add(int64(ist.NodesCached))
		tel.Graph.Record(sub.graph)
		openLocs, openConts := sub.comp.Opens()
		tel.Comp.Record(openLocs, openConts, 3, 64)
	})
	if recording != 0 {
		t.Errorf("telemetry recording allocates %.1f allocs/op, want 0", recording)
	}

	// The hot loop must allocate exactly as much instrumented as not:
	// whatever the stages themselves allocate, telemetry adds nothing.
	baseline := testing.AllocsPerRun(200, func() {
		now++
		hotEpoch(t, sub, o, now, nil, nil)
	})
	instrumented := testing.AllocsPerRun(200, func() {
		now++
		hotEpoch(t, sub, o, now, tel, nil)
	})
	if instrumented != baseline {
		t.Errorf("instrumented hot loop allocates %.1f allocs/op vs %.1f uninstrumented; telemetry overhead must be 0",
			instrumented, baseline)
	}

	// The same bar holds for tracing. A recorder with no traced tags still
	// rides the hot loop (flight spans, mechanism counters) but keeps all
	// per-tag storage off; its records land in preallocated rings, so the
	// untraced-tags hot path must match the baseline exactly. The fully
	// disabled mode (nil recorder) is gated out before any call and cannot
	// do better than this.
	recOff := trace.New(trace.Config{})
	sub.graph.SetTracer(recOff)
	sub.inf.SetTracer(recOff)
	tracedOff := testing.AllocsPerRun(200, func() {
		now++
		hotEpoch(t, sub, o, now, nil, recOff)
	})
	sub.graph.SetTracer(nil)
	sub.inf.SetTracer(nil)
	if tracedOff != baseline {
		t.Errorf("hot loop with a no-tags recorder allocates %.1f allocs/op vs %.1f baseline; tracing overhead must be 0",
			tracedOff, baseline)
	}
}

// BenchmarkInstrumentedEpochLoop reports the per-epoch cost of the
// instrumented hot loop; ReportAllocs keeps the overhead claim auditable
// next to BenchmarkEpochLoopBaseline in benchmark output.
func BenchmarkInstrumentedEpochLoop(b *testing.B) {
	sub, o := warmInstrumented(b)
	now := sub.LastEpoch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now++
		hotEpoch(b, sub, o, now, sub.tel, nil)
	}
}

// BenchmarkEpochLoopBaseline is the same loop with telemetry disabled.
func BenchmarkEpochLoopBaseline(b *testing.B) {
	sub, o := warmInstrumented(b)
	now := sub.LastEpoch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now++
		hotEpoch(b, sub, o, now, nil, nil)
	}
}
