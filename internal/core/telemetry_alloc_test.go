package core

import (
	"runtime"
	"testing"
	"time"

	"spire/internal/epc"
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
		last = *o.Clone()
		if _, err := sub.ProcessBatch(o); err != nil {
			tb.Fatal(err)
		}
	}
	return sub, &last
}

// hotEpoch replays one epoch of the hot loop against the warm substrate,
// with the same stage clock and the same tel/rec gating as ProcessBatch.
// Nil tel and rec is the unobserved baseline.
func hotEpoch(tb testing.TB, sub *Substrate, b *model.Batch, now model.Epoch, tel *Instruments, rec *trace.Recorder) {
	clock := stageClock{last: time.Now()}
	b.Time = now
	readers := sub.groupReaders[:0]
	for i := range b.Groups {
		readers = append(readers, sub.readers[b.Groups[i].Reader])
	}
	sub.groupReaders = readers
	if err := sub.graph.UpdateBatch(b, readers); err != nil {
		tb.Fatal(err)
	}
	clock.update = clock.lap()
	res := sub.inf.Infer(sub.graph, now, inference.Complete)
	clock.infer = clock.lap()
	inference.ResolveConflicts(res, levelOf, rec)
	clock.conflict = clock.lap()
	if tel != nil {
		tel.StageUpdate.Observe(clock.update.Seconds())
		tel.StageInfer.Observe(clock.infer.Seconds())
		tel.StageConflict.Observe(clock.conflict.Seconds())
		tel.Epochs.Inc()
		tel.Readings.Add(int64(b.Total()))
		ist := sub.InferStats()
		tel.InferDirty.Add(int64(ist.DirtyComponents))
		tel.InferClean.Add(int64(ist.CleanComponents))
		tel.InferNodesRun.Add(int64(ist.NodesInferred))
		tel.Graph.Record(sub.graph)
		openLocs, openConts := sub.comp.Opens()
		tel.Comp.Record(openLocs, openConts, 0, 0)
	}
	if rec != nil {
		rec.EndEpoch(trace.Span{Epoch: now, Readings: int64(b.Total()), UpdateNS: clock.update.Nanoseconds(),
			InferNS: clock.infer.Nanoseconds(), ConflictNS: clock.conflict.Nanoseconds()})
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

	// The same bar holds for tracing. A recorder takes records for traced
	// tags only, and spans carry counts the pipeline keeps anyway, so a
	// recorder with no traced tags must match the baseline exactly. The
	// fully disabled mode (nil recorder) cannot do better than this.
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

// TestEpochTailAllocs pins the map-free epoch tail: once warm, partial and
// complete inference and Table I conflict resolution allocate nothing per
// epoch, and the exit walk allocates only the Retired slice it returns
// (EpochOutput.Retired outlives the call). Each measured step replays the
// steady-state batch through the graph first, so every pass sweeps real
// work; the graph update itself is allocation-free once warm.
func TestEpochTailAllocs(t *testing.T) {
	sub, o := warmInstrumented(t)
	now := sub.LastEpoch()
	// replay applies the batch, then the extra reader's tags if any.
	replay := func(extra *model.Reader, tags ...model.Tag) {
		now++
		o.Time = now
		readers := sub.groupReaders[:0]
		for i := range o.Groups {
			readers = append(readers, sub.readers[o.Groups[i].Reader])
		}
		sub.groupReaders = readers
		if err := sub.graph.UpdateBatch(o, readers); err != nil {
			t.Fatal(err)
		}
		if extra != nil {
			eb := model.NewBatch(now)
			eb.AppendGroup(extra.ID, tags)
			if err := sub.graph.UpdateBatch(eb, []*model.Reader{extra}); err != nil {
				t.Fatal(err)
			}
		}
	}
	pass := func(mode inference.Mode) *inference.Result {
		replay(nil)
		return sub.inf.Infer(sub.graph, now, mode)
	}
	if got := testing.AllocsPerRun(100, func() { pass(inference.Partial) }); got != 0 {
		t.Errorf("partial Infer allocates %.1f allocs/op, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { pass(inference.Complete) }); got != 0 {
		t.Errorf("complete Infer allocates %.1f allocs/op, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		inference.ResolveConflicts(pass(inference.Complete), levelOf, nil)
	}); got != 0 {
		t.Errorf("Infer + ResolveConflicts allocates %.1f allocs/op, want 0", got)
	}

	// Churn: every epoch one new tag arrives, read alone at a location of
	// its own so it stays a singleton, and the oldest arrival is removed.
	// The node count holds, so ranking the arrivals and writing their rows
	// may not allocate; only a new peak node count may. The inferencer
	// runs the substrate's own configuration.
	lone := &model.Reader{ID: 1 << 20, Location: model.LocationID(len(sub.cfg.Locations) + 1)}
	inf, err := inference.New(sub.cfg.Inference)
	if err != nil {
		t.Fatal(err)
	}
	var arrived []model.Tag
	var mallocs, epochs uint64
	peak := sub.graph.Len()
	for i := 0; i < 200; i++ {
		lvl := model.LevelItem
		if i%2 == 0 {
			lvl = model.LevelPallet // above every other tag, else inside the order
		}
		tag := epc.MustEncode(epc.Identity{Level: lvl, Company: 9, Serial: uint32(i + 1)})
		arrived = append(arrived, tag)
		if len(arrived) > 8 {
			sub.graph.RemoveNode(arrived[0])
			arrived = arrived[1:]
		}
		replay(lone, tag)
		mode := inference.Complete
		if i%3 > 0 {
			mode = inference.Partial
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := inf.Infer(sub.graph, now, mode)
		inference.ResolveConflicts(res, levelOf, nil)
		runtime.ReadMemStats(&after)
		if _, ok := res.Lookup(tag); !ok {
			t.Fatalf("churn epoch %d: no row for the arriving tag", i)
		}
		if n := sub.graph.Len(); n > peak {
			peak = n
		} else if i >= 10 {
			mallocs += after.Mallocs - before.Mallocs
			epochs++
		}
	}
	// Averaged and rounded down as testing.AllocsPerRun does, which
	// absorbs the fade table's rare doubling as the oldest age grows.
	if epochs == 0 || mallocs/epochs != 0 {
		t.Errorf("churn: Infer + ResolveConflicts allocate %d times in %d epochs at a steady node count", mallocs, epochs)
	}

	// Treat a location the replayed batch reads as an exit, so the walk
	// has seeds and their contents to collect; exitSet only reads.
	for _, gr := range o.Groups {
		if gr.End > gr.Start {
			sub.exits[sub.readers[gr.Reader].Location] = true
			break
		}
	}
	res := pass(inference.Complete)
	inference.ResolveConflicts(res, levelOf, nil)
	var retired []model.Tag
	if got := testing.AllocsPerRun(100, func() { retired = sub.exitSet(res) }); got != 1 {
		t.Errorf("exit walk allocates %.1f allocs/op, want 1 (the Retired slice)", got)
	}
	if len(retired) == 0 {
		t.Fatal("exit walk collected nothing: the pin exercised no work")
	}
}
