package dedup

import (
	"testing"

	"spire/internal/model"
)

// clean resolves o through the columnar path — the only resolver — and
// writes the result back into o so the cases below can state inputs and
// expectations per reader.
func clean(d *Deduplicator, o *model.Observation) {
	var b model.Batch
	o.ByReader = d.CleanBatch(b.FromObservation(o)).Observation().ByReader
}

func TestCleanNoDuplicates(t *testing.T) {
	d := New()
	o := model.NewObservation(1)
	o.Add(1, 10)
	o.Add(2, 20)
	clean(d, o)
	if o.Total() != 2 {
		t.Fatalf("Total = %d, want 2", o.Total())
	}
}

func TestCleanAssignsToStickyReader(t *testing.T) {
	d := New()
	// Epoch 1: tag 10 read only by reader 2.
	o1 := model.NewObservation(1)
	o1.Add(2, 10)
	clean(d, o1)
	// Epoch 2: read by overlapping readers 1 and 2 — sticks with 2.
	o2 := model.NewObservation(2)
	o2.Add(1, 10)
	o2.Add(2, 10)
	clean(d, o2)
	if len(o2.ByReader[2]) != 1 || len(o2.ByReader[1]) != 0 {
		t.Errorf("tag must stick with its most recent reader: %v", o2.ByReader)
	}
}

func TestCleanUnknownTagPrefersLowestReader(t *testing.T) {
	d := New()
	o := model.NewObservation(1)
	o.Add(5, 10)
	o.Add(3, 10)
	clean(d, o)
	if len(o.ByReader[3]) != 1 || len(o.ByReader[5]) != 0 {
		t.Errorf("fresh duplicate must deterministically pick the lowest reader: %v", o.ByReader)
	}
}

func TestCleanSwitchesWhenOldReaderAbsent(t *testing.T) {
	d := New()
	o1 := model.NewObservation(1)
	o1.Add(7, 10)
	clean(d, o1)
	o2 := model.NewObservation(2)
	o2.Add(2, 10)
	o2.Add(4, 10)
	clean(d, o2)
	if len(o2.ByReader[2]) != 1 {
		t.Errorf("tag must move to a current reader when the old one no longer sees it: %v", o2.ByReader)
	}
	// And the new assignment becomes sticky.
	o3 := model.NewObservation(3)
	o3.Add(2, 10)
	o3.Add(1, 10)
	clean(d, o3)
	if len(o3.ByReader[2]) != 1 || len(o3.ByReader[1]) != 0 {
		t.Errorf("assignment must be sticky: %v", o3.ByReader)
	}
}

func TestCleanDropsInReaderDuplicates(t *testing.T) {
	d := New()
	o := model.NewObservation(1)
	o.Add(1, 10)
	o.Add(1, 10)
	clean(d, o)
	if len(o.ByReader[1]) != 1 {
		t.Errorf("duplicate readings within one reader must collapse: %v", o.ByReader[1])
	}
}

func TestForget(t *testing.T) {
	d := New()
	o := model.NewObservation(1)
	o.Add(9, 10)
	clean(d, o)
	if d.Len() != 1 {
		t.Fatalf("Len = %d, want 1", d.Len())
	}
	d.Forget(10)
	if d.Len() != 0 {
		t.Fatalf("Len after Forget = %d, want 0", d.Len())
	}
	// With history gone, assignment reverts to the deterministic default.
	o2 := model.NewObservation(2)
	o2.Add(9, 10)
	o2.Add(1, 10)
	clean(d, o2)
	if len(o2.ByReader[1]) != 1 {
		t.Errorf("forgotten tag must pick lowest reader: %v", o2.ByReader)
	}
}

// TestCleanStaleHistoryDoesNotWin is the recency regression: a reader's
// ancient claim on a tag (outside the staleness window) must not decide a
// present-day tie against a reader that is co-reading the tag now.
func TestCleanStaleHistoryDoesNotWin(t *testing.T) {
	d := New()
	o1 := model.NewObservation(1)
	o1.Add(7, 10)
	clean(d, o1)
	// Far outside the window, readers 3 and 7 both read the tag. Reader 7's
	// history from epoch 1 is stale, so the deterministic lowest-reader rule
	// applies instead of stickiness.
	late := model.NewObservation(1 + DefaultStaleness + 1)
	late.Add(7, 10)
	late.Add(3, 10)
	clean(d, late)
	if len(late.ByReader[3]) != 1 || len(late.ByReader[7]) != 0 {
		t.Fatalf("stale history must not win the tie: %v", late.ByReader)
	}
	// The fresh assignment is recorded and becomes sticky again.
	next := model.NewObservation(late.Time + 1)
	next.Add(7, 10)
	next.Add(3, 10)
	clean(d, next)
	if len(next.ByReader[3]) != 1 {
		t.Errorf("fresh assignment must be sticky: %v", next.ByReader)
	}
}

// TestCleanStalenessBoundary pins the window edge: history exactly
// `staleness` epochs old still counts; one epoch older does not.
func TestCleanStalenessBoundary(t *testing.T) {
	for _, tc := range []struct {
		gap        model.Epoch
		wantReader model.ReaderID
	}{
		{DefaultStaleness, 7},     // at the boundary: still fresh
		{DefaultStaleness + 1, 3}, // just past it: stale
	} {
		d := New()
		o1 := model.NewObservation(1)
		o1.Add(7, 10)
		clean(d, o1)
		o2 := model.NewObservation(1 + tc.gap)
		o2.Add(7, 10)
		o2.Add(3, 10)
		clean(d, o2)
		if len(o2.ByReader[tc.wantReader]) != 1 {
			t.Errorf("gap %d: want reader %d to keep the tag: %v", tc.gap, tc.wantReader, o2.ByReader)
		}
	}
}

// TestCleanStalenessDisabled keeps the pre-window behavior reachable: a
// negative window means history never expires.
func TestCleanStalenessDisabled(t *testing.T) {
	d := NewWithStaleness(-1)
	if d.Staleness() >= 0 {
		t.Fatalf("Staleness() = %d, want negative", d.Staleness())
	}
	o1 := model.NewObservation(1)
	o1.Add(7, 10)
	clean(d, o1)
	o2 := model.NewObservation(1_000_000)
	o2.Add(7, 10)
	o2.Add(3, 10)
	clean(d, o2)
	if len(o2.ByReader[7]) != 1 {
		t.Errorf("with expiry disabled the old reader must still win: %v", o2.ByReader)
	}
}
