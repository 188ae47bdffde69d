package core

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"spire/internal/event"
	"spire/internal/model"
	"spire/internal/sim"
	"spire/internal/telemetry"
	"spire/internal/trace"
)

// Tracing transparency: like telemetry, decision-provenance recording is
// observation-only. A run with a live recorder (tracing every tag, the
// worst case) and an untraced run must be indistinguishable in the event
// stream, the query store, and the checkpoint bytes. These tests extend
// the instrumentation-transparency suite to the trace layer.

func testTraceTransparency(t *testing.T, level CompressionLevel) {
	obsTrace, s := buildTrace(t, 150)
	end := obsTrace[len(obsTrace)-1].Time + 1

	run := func(rec *trace.Recorder) (*Substrate, []event.Event, []telemetry.MetricSnapshot) {
		sub := newSubstrate(t, s, level)
		reg := telemetry.NewRegistry()
		sub.Instrument(reg)
		sub.Trace(rec)
		var evs []event.Event
		for _, o := range obsTrace {
			out, err := sub.ProcessBatch(o.Clone())
			if err != nil {
				t.Fatal(err)
			}
			evs = append(evs, out.Events...)
		}
		evs = append(evs, sub.Close(end)...)
		return sub, evs, nonTiming(reg.Snapshot())
	}

	plainSub, plainEvs, plainTel := run(nil)
	rec := trace.New(trace.Config{All: true})
	tracedSub, tracedEvs, tracedTel := run(rec)

	// Traced and untraced epochs take the same path, so everything the
	// registry counts — readings and batch bytes included — must
	// agree; only measured durations may differ.
	if !reflect.DeepEqual(plainTel, tracedTel) {
		t.Fatalf("telemetry differs with a recorder attached:\n plain  %+v\n traced %+v", plainTel, tracedTel)
	}
	for _, m := range tracedTel {
		if m.Name == "spire_readings_total" && m.Value != float64(plainSub.Stats().Readings) {
			t.Fatalf("traced run exported spire_readings_total = %v, want %d", m.Value, plainSub.Stats().Readings)
		}
	}

	plainBytes := encodeEvents(t, plainEvs)
	if len(plainBytes) == 0 {
		t.Fatal("reference run produced no events")
	}
	if !bytes.Equal(plainBytes, encodeEvents(t, tracedEvs)) {
		t.Fatalf("traced event stream differs (%d vs %d events)",
			len(tracedEvs), len(plainEvs))
	}
	compareStores(t, feedStore(t, tracedEvs), feedStore(t, plainEvs), "traced run")

	if !bytes.Equal(snapshotBytes(t, plainSub), snapshotBytes(t, tracedSub)) {
		t.Fatal("traced checkpoint differs from untraced checkpoint")
	}

	// Guard against vacuous success: the recorder must actually have
	// recorded — a span per epoch and provenance for some tags.
	spans := rec.Spans()
	if len(spans) != len(obsTrace) {
		t.Errorf("flight recorder holds %d spans, want %d", len(spans), len(obsTrace))
	}
	for _, sp := range spans {
		if sp.UpdateNS <= 0 || sp.InferNS <= 0 {
			t.Fatalf("span %d missing stage timings: %+v", sp.Epoch, sp)
		}
	}
	if len(rec.TracedTags()) == 0 {
		t.Error("no tags recorded provenance in an all-tags traced run")
	}
}

// nonTiming strips measured durations from a registry snapshot, keeping
// every counter, gauge, and histogram observation count.
func nonTiming(snap []telemetry.MetricSnapshot) []telemetry.MetricSnapshot {
	for i := range snap {
		snap[i].Sum, snap[i].Buckets = 0, nil
	}
	return snap
}

func TestTraceTransparencyLevel1(t *testing.T) { testTraceTransparency(t, Level1) }
func TestTraceTransparencyLevel2(t *testing.T) { testTraceTransparency(t, Level2) }

// TestTraceTransparencyRunner runs the runner path over a faulted
// delivery (reader dropout bursts and lost epochs) with every tag traced
// and requires the untraced run's bytes and one span per delivered
// batch, each for the epoch it carried: the runner adds no span of its
// own.
func TestTraceTransparencyRunner(t *testing.T) {
	obsTrace, s := buildTrace(t, 150)
	delivery := sim.NewFaultInjector(sim.FaultConfig{
		Seed:          7,
		DropoutEvery:  20,
		DropoutLen:    3,
		DropEpochRate: 0.1,
	}).Apply(obsTrace)

	plain := runDelivery(t, newSubstrate(t, s, Level2), RunnerConfig{}, delivery)

	rec := trace.New(trace.Config{All: true, Epochs: len(delivery)})
	tracedSub := newSubstrate(t, s, Level2)
	tracedSub.Trace(rec)
	traced := runDelivery(t, tracedSub, RunnerConfig{}, delivery)

	if !bytes.Equal(encodeEvents(t, plain), encodeEvents(t, traced)) {
		t.Fatalf("traced runner stream differs (%d vs %d events)", len(traced), len(plain))
	}
	spans := rec.Spans()
	if len(spans) != len(delivery) {
		t.Fatalf("%d spans for %d delivered batches", len(spans), len(delivery))
	}
	for i, sp := range spans {
		if sp.Epoch != delivery[i].Time {
			t.Fatalf("span %d is epoch %d, want %d", i, sp.Epoch, delivery[i].Time)
		}
	}
}

// TestGoldenScenariosTraced reruns the golden corpus with every tag
// traced and requires the committed digests to hold — tracing must not
// move a single output byte in any scenario — and then requires Explain
// to name a mechanism for every object that appeared in the output.
func TestGoldenScenariosTraced(t *testing.T) {
	if *updateGolden {
		t.Skip("golden digests being rewritten; the untraced run owns them")
	}
	obsTrace, s := buildTrace(t, 200)
	for _, sc := range goldenScenarios {
		t.Run(sc.name, func(t *testing.T) {
			delivery := obsTrace
			if sc.faults != nil {
				delivery = sim.NewFaultInjector(*sc.faults).Apply(obsTrace)
			}

			plain := runDelivery(t, newSubstrate(t, s, sc.level), RunnerConfig{}, delivery)

			rec := trace.New(trace.Config{All: true})
			sub := newSubstrate(t, s, sc.level)
			sub.Trace(rec)
			traced := runDelivery(t, sub, RunnerConfig{}, delivery)

			if !bytes.Equal(encodeEvents(t, plain), encodeEvents(t, traced)) {
				t.Fatalf("%s: traced run changed the golden output stream", sc.name)
			}

			// Every object the output stream mentions must be explainable:
			// a causal chain with at least one step naming its mechanism
			// and paper citation.
			tags := map[model.Tag]bool{}
			for _, e := range traced {
				tags[e.Object] = true
				if e.Kind.Containment() && e.Container != model.NoTag {
					tags[e.Container] = true
				}
			}
			if len(tags) == 0 {
				t.Fatal("scenario produced no objects")
			}
			for g := range tags {
				ex := rec.Explain(g)
				if ex == nil || len(ex.Chain) == 0 {
					t.Errorf("%s: no explanation for tag %d", sc.name, g)
					continue
				}
				for _, step := range ex.Chain {
					if step.Mechanism == "" || step.Citation == "" {
						t.Errorf("%s: tag %d step lacks mechanism/citation: %+v", sc.name, g, step)
					}
				}
			}
		})
	}
}

// TestSpanCountsIndependentOfTracedTags: a span's decision counts come
// from the stages that decide, so a spans-only recorder reports exactly
// what an all-tags recorder does, epoch for epoch.
func TestSpanCountsIndependentOfTracedTags(t *testing.T) {
	obsTrace, s := buildTrace(t, 400)
	run := func(cfg trace.Config) []trace.Span {
		cfg.Epochs = len(obsTrace)
		rec := trace.New(cfg)
		sub := newSubstrate(t, s, Level2)
		sub.Trace(rec)
		for _, o := range obsTrace {
			if _, err := sub.ProcessBatch(o.Clone()); err != nil {
				t.Fatal(err)
			}
		}
		return rec.Spans()
	}
	spansOnly, all := run(trace.Config{}), run(trace.Config{All: true})
	if len(spansOnly) != len(obsTrace) || len(all) != len(obsTrace) {
		t.Fatalf("spans: %d spans-only, %d all-tags; want %d each", len(spansOnly), len(all), len(obsTrace))
	}
	var conflicts, created int64
	for i, a := range spansOnly {
		b := all[i]
		if a.Conflicts != b.Conflicts || a.EdgesCreated != b.EdgesCreated || a.EdgesDropped != b.EdgesDropped ||
			a.Confirmations != b.Confirmations || a.Resurrections != b.Resurrections ||
			!slices.Equal(a.Anomalies, b.Anomalies) {
			t.Fatalf("epoch %d: spans-only %+v, all-tags %+v", a.Epoch, a, b)
		}
		conflicts += a.Conflicts
		created += a.EdgesCreated
	}
	if conflicts == 0 || created == 0 {
		t.Errorf("vacuous run: %d conflicts, %d edges created", conflicts, created)
	}
}
