package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"spire/internal/compress"
	"spire/internal/event"
	"spire/internal/metrics"
	"spire/internal/model"
	"spire/internal/sim"
)

// buildTraceWithTruth steps a fast trace and maintains the ground-truth
// level-1 event stream alongside, as the experiment harness does.
func buildTraceWithTruth(t *testing.T, duration model.Epoch) ([]*model.Batch, []event.Event, *sim.Simulator) {
	t.Helper()
	s := fastSim(t, func(c *sim.Config) { c.Duration = duration })
	truthComp := compress.NewLevel1(levelOf)
	var trace []*model.Batch
	var truth []event.Event
	for !s.Done() {
		o, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		trace = append(trace, o)
		truth = append(truth, truthComp.Compress(s.TrueResult())...)
		for _, g := range s.Departed() {
			truth = append(truth, truthComp.Retire(g, s.Now())...)
		}
	}
	truth = append(truth, truthComp.Close(s.Now()+1)...)
	return trace, truth, s
}

// runGated feeds a delivery sequence through a configured runner and
// returns the full output stream (including the closing events).
func runGated(t *testing.T, sub *Substrate, cfg RunnerConfig, delivery []*model.Batch) ([]event.Event, IngestStats) {
	t.Helper()
	r := NewRunnerConfigured(sub, cfg)
	in := make(chan *model.Batch)
	out := make(chan *EpochOutput, 1)
	errc := make(chan error, 1)
	go func() { errc <- r.Run(context.Background(), in, out) }()
	var evs []event.Event
	done := make(chan struct{})
	go func() {
		defer close(done)
		for po := range out {
			evs = append(evs, po.Events...)
		}
	}()
	for _, o := range delivery {
		in <- o.Clone()
	}
	close(in)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	<-done
	return evs, r.IngestStats()
}

// TestRepairReproducesCleanRun is the repair policy's equivalence
// property: duplicated and swapped deliveries carry the same information
// as the clean trace, so after reordering and merging the output stream
// must be byte-identical to the unfaulted run.
func TestRepairReproducesCleanRun(t *testing.T) {
	trace, _, s := buildTraceWithTruth(t, 150)

	want, _ := runGated(t, newSubstrate(t, s, Level1), RunnerConfig{}, trace)

	inj := sim.NewFaultInjector(sim.FaultConfig{
		Seed:          7,
		DuplicateRate: 0.25,
		SwapRate:      0.25,
	})
	delivery := inj.Apply(trace)
	if len(delivery) <= len(trace) {
		t.Fatalf("injector produced no duplicates (%d of %d)", len(delivery), len(trace))
	}
	got, stats := runGated(t, newSubstrate(t, s, Level1),
		RunnerConfig{Ingest: IngestConfig{Policy: IngestRepair}}, delivery)
	if stats.Merged == 0 || stats.Reordered == 0 {
		t.Fatalf("faults not exercised: %+v", stats)
	}
	if stats.Accepted != int64(len(trace)) {
		t.Errorf("repair delivered %d epochs, want %d", stats.Accepted, len(trace))
	}
	if !bytes.Equal(encodeEvents(t, got), encodeEvents(t, want)) {
		t.Fatalf("repaired stream not byte-identical to clean run (%d vs %d events)", len(got), len(want))
	}
}

// TestIngestPoliciesSurviveFullFaults turns every fault on — dropout
// bursts, duplicates, swaps, lost epochs — and checks that both lenient
// policies run the trace to completion with a well-formed closed output
// stream, and that the reject policy's interpretation quality (event
// F-measure against ground truth) stays useful.
func TestIngestPoliciesSurviveFullFaults(t *testing.T) {
	trace, truth, s := buildTraceWithTruth(t, 300)
	inj := sim.NewFaultInjector(sim.FaultConfig{
		Seed:          42,
		DropoutEvery:  20,
		DropoutLen:    3,
		DuplicateRate: 0.15,
		SwapRate:      0.15,
		DropEpochRate: 0.05,
	})
	delivery := inj.Apply(trace)

	for _, policy := range []IngestPolicy{IngestReject, IngestRepair} {
		t.Run(policy.String(), func(t *testing.T) {
			evs, stats := runGated(t, newSubstrate(t, s, Level1),
				RunnerConfig{Ingest: IngestConfig{Policy: policy}}, delivery)
			if err := event.CheckWellFormed(evs, true); err != nil {
				t.Fatalf("output stream: %v", err)
			}
			if stats.Accepted == 0 {
				t.Fatalf("gate accepted nothing: %+v", stats)
			}
			outLoc, _ := event.SplitStreams(evs)
			truthLoc, _ := event.SplitStreams(truth)
			score := metrics.ScoreEvents(outLoc, truthLoc, 60)
			t.Logf("policy %s: %+v; location-event F=%.3f (P=%.3f R=%.3f)",
				policy, stats, score.F, score.Precision, score.Recall)
			if score.F < 0.5 {
				t.Errorf("F-measure %.3f under faults too low", score.F)
			}
		})
	}
}

// TestIngestStrictFailsOnDisorder pins the historical behavior: under the
// strict policy an out-of-order delivery reaches the substrate and fails
// the run instead of being papered over.
func TestIngestStrictFailsOnDisorder(t *testing.T) {
	trace, _, s := buildTraceWithTruth(t, 30)
	delivery := []*model.Batch{trace[0], trace[2], trace[1]}
	r := NewRunnerConfigured(newSubstrate(t, s, Level1), RunnerConfig{})
	in := make(chan *model.Batch, len(delivery))
	out := make(chan *EpochOutput, len(delivery)+1)
	for _, o := range delivery {
		in <- o.Clone()
	}
	close(in)
	err := r.Run(context.Background(), in, out)
	if err == nil {
		t.Fatal("strict policy must surface non-monotone input")
	}
	if want := fmt.Sprintf("epoch %d", trace[1].Time); !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Errorf("error %q does not name the offending epoch", err)
	}
}

// TestIngestGateRepairWindow checks the repair gate directly: late
// arrivals within the window are reordered into place, later ones are
// dropped as stale.
func TestIngestGateRepairWindow(t *testing.T) {
	g := newIngestGate(IngestConfig{Policy: IngestRepair, ReorderWindow: 4}, model.EpochNone)
	mk := func(e model.Epoch) *model.Batch { return model.NewBatch(e) }
	var delivered []model.Epoch
	offer := func(e model.Epoch) {
		for _, o := range g.Offer(mk(e)) {
			delivered = append(delivered, o.Time)
		}
	}
	// Epoch 2 arrives late but within the window.
	for _, e := range []model.Epoch{1, 3, 4, 2, 5, 6, 7, 8, 9} {
		offer(e)
	}
	for _, o := range g.Drain() {
		delivered = append(delivered, o.Time)
	}
	want := []model.Epoch{1, 2, 3, 4, 5, 6, 7, 8, 9}
	if fmt.Sprint(delivered) != fmt.Sprint(want) {
		t.Fatalf("delivered %v, want %v", delivered, want)
	}
	if g.stats.Stale != 0 || g.stats.Accepted != int64(len(want)) {
		t.Errorf("stats %+v", g.stats)
	}

	// An arrival behind the already-delivered frontier is beyond repair.
	g2 := newIngestGate(IngestConfig{Policy: IngestRepair, ReorderWindow: 2}, model.EpochNone)
	var out2 []model.Epoch
	for _, e := range []model.Epoch{1, 2, 3, 4, 5, 6, 1} {
		for _, o := range g2.Offer(mk(e)) {
			out2 = append(out2, o.Time)
		}
	}
	if g2.stats.Stale != 1 {
		t.Errorf("late arrival beyond window: stats %+v", g2.stats)
	}
}

// TestIngestGateMergeIsPerReaderUnion pins the repair policy's
// duplicate-epoch merge: per reader, the buffered batch's tags (in-group
// repeats included) come first, then the duplicate's tags it lacks
// (repeats dropped); readers only one side has are kept, empty groups
// included, and groups stay ascending.
func TestIngestGateMergeIsPerReaderUnion(t *testing.T) {
	g := newIngestGate(IngestConfig{Policy: IngestRepair, ReorderWindow: 4}, model.EpochNone)
	first := model.NewBatch(1)
	first.AppendGroup(2, []model.Tag{20, 21, 20})
	first.AppendGroup(4, []model.Tag{40})
	first.AppendGroup(6, nil)
	dup := model.NewBatch(1)
	dup.AppendGroup(1, []model.Tag{10, 10, 11})
	dup.AppendGroup(2, []model.Tag{22, 21, 22})
	dup.AppendGroup(5, nil)
	dup.AppendGroup(6, []model.Tag{60})
	g.Offer(first)
	g.Offer(dup)
	got := g.Drain()
	if len(got) != 1 || g.stats.Merged != 1 {
		t.Fatalf("delivered %d batches, stats %+v; want one merged batch", len(got), g.stats)
	}
	want := model.NewBatch(1)
	want.AppendGroup(1, []model.Tag{10, 11})
	want.AppendGroup(2, []model.Tag{20, 21, 20, 22})
	want.AppendGroup(4, []model.Tag{40})
	want.AppendGroup(5, nil)
	want.AppendGroup(6, []model.Tag{60})
	if err := got[0].Validate(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got[0].Readings(), got[0].Groups) != fmt.Sprint(want.Readings(), want.Groups) {
		t.Fatalf("merged %v %v, want %v %v", got[0].Groups, got[0].Tags, want.Groups, want.Tags)
	}
}
