package sim

import (
	"slices"
	"testing"

	"spire/internal/model"
)

// TestStepBatchMatchesStep runs two same-seed simulators, one through
// Step (a fresh batch per epoch) and one through StepBatch into a reused
// batch, and demands identical traces: reusing the batch buffers must
// never leak one epoch into the next. Ground-truth side effects
// (departures, world clock) must agree too.
func TestStepBatchMatchesStep(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 200
	cfg.PalletInterval = 40
	cfg.ItemsPerCase = 3
	cfg.ShelfTime = 60
	cfg.ShelfPeriod = 10
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var batch model.Batch
	for !a.Done() {
		want, err := a.Step()
		if err != nil {
			t.Fatal(err)
		}
		if b.Done() {
			t.Fatal("batched simulator finished early")
		}
		if err := b.StepBatch(&batch); err != nil {
			t.Fatal(err)
		}
		if err := batch.Validate(); err != nil {
			t.Fatalf("epoch %d: %v", batch.Time, err)
		}
		if batch.Time != want.Time ||
			!slices.Equal(batch.Groups, want.Groups) ||
			!slices.Equal(batch.Tags, want.Tags) {
			t.Fatalf("epoch %d: reused batch diverged from Step", want.Time)
		}
		if !slices.Equal(a.Departed(), b.Departed()) {
			t.Fatalf("epoch %d: departures diverged: %v vs %v", want.Time, a.Departed(), b.Departed())
		}
	}
	if !b.Done() {
		t.Fatal("batched simulator did not finish with the reference")
	}
}
