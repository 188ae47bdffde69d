package core

import (
	"context"
	"testing"
	"time"

	"spire/internal/event"
	"spire/internal/model"
	"spire/internal/sim"
)

func TestRunnerProcessesStream(t *testing.T) {
	s := fastSim(t, func(c *sim.Config) { c.Duration = 120 })
	sub := newSubstrate(t, s, Level1)
	r := NewRunner(sub)

	in := make(chan *model.Batch, 8)
	out := make(chan *EpochOutput, 8)
	errc := make(chan error, 1)
	go func() { errc <- r.Run(context.Background(), in, out) }()

	go func() {
		defer close(in)
		for !s.Done() {
			o, err := s.Step()
			if err != nil {
				t.Error(err)
				return
			}
			in <- o
		}
	}()

	var all []event.Event
	epochs := 0
	sawFinal := false
	for po := range out {
		all = append(all, po.Events...)
		if po.Result == nil {
			sawFinal = true
		} else {
			epochs++
		}
	}
	if err := <-errc; err != nil {
		t.Fatalf("Run: %v", err)
	}
	if epochs != 120 {
		t.Errorf("processed %d epochs, want 120", epochs)
	}
	if !sawFinal {
		t.Error("expected a final closing output")
	}
	if err := event.CheckWellFormed(all, true); err != nil {
		t.Fatalf("stream: %v", err)
	}
}

func TestRunnerCancellation(t *testing.T) {
	s := fastSim(t, nil)
	sub := newSubstrate(t, s, Level1)
	r := NewRunner(sub)
	ctx, cancel := context.WithCancel(context.Background())

	in := make(chan *model.Batch) // unbuffered: runner will block on receive
	out := make(chan *EpochOutput)
	errc := make(chan error, 1)
	go func() { errc <- r.Run(ctx, in, out) }()
	cancel()
	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Fatalf("Run = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("runner did not observe cancellation")
	}
	if _, ok := <-out; ok {
		t.Error("output channel must be closed after cancellation")
	}
}

func TestRunnerPropagatesProcessingError(t *testing.T) {
	s := fastSim(t, nil)
	sub := newSubstrate(t, s, Level1)
	r := NewRunner(sub)
	in := make(chan *model.Batch, 2)
	out := make(chan *EpochOutput, 2)
	bad := model.NewBatch(1)
	bad.AppendGroup(12345, []model.Tag{1}) // unknown reader
	in <- bad
	close(in)
	errc := make(chan error, 1)
	go func() { errc <- r.Run(context.Background(), in, out) }()
	for range out {
	}
	if err := <-errc; err == nil {
		t.Fatal("processing error must propagate")
	}
}
