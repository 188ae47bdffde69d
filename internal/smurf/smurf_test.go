package smurf

import (
	"math/rand"
	"testing"

	"spire/internal/model"
)

var testReaders = []model.Reader{
	{ID: 1, Location: 0, Period: 1, ReadRate: 1},
	{ID: 2, Location: 1, Period: 1, ReadRate: 1},
	{ID: 3, Location: 2, Period: 20, ReadRate: 1}, // shelf-like reader
}

func obs(now model.Epoch, reader model.ReaderID, tags ...model.Tag) *model.Batch {
	b := model.NewBatch(now)
	b.AppendGroup(reader, tags)
	return b
}

func TestUnknownReaderRejected(t *testing.T) {
	c := New(testReaders)
	if _, err := c.ProcessBatch(obs(1, 99, 5)); err == nil {
		t.Error("unknown reader must fail")
	}
}

func TestSmoothsOverMissedReadings(t *testing.T) {
	c := New(testReaders)
	// Read every epoch for a while, then a couple of misses: the tag must
	// remain present at its location.
	for e := model.Epoch(1); e <= 10; e++ {
		if _, err := c.ProcessBatch(obs(e, 1, 7)); err != nil {
			t.Fatal(err)
		}
	}
	for e := model.Epoch(11); e <= 12; e++ {
		res, err := c.ProcessBatch(obs(e, 1))
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Locations[7]; got != 0 {
			t.Errorf("epoch %d: smoothed location = %v, want L0", e, got)
		}
		if res.Observed[7] {
			t.Error("missed tag must not be marked observed")
		}
	}
}

func TestLongAbsenceReportsAway(t *testing.T) {
	c := New(testReaders)
	for e := model.Epoch(1); e <= 10; e++ {
		if _, err := c.ProcessBatch(obs(e, 1, 7)); err != nil {
			t.Fatal(err)
		}
	}
	var last model.LocationID
	for e := model.Epoch(11); e <= 60; e++ {
		res, err := c.ProcessBatch(obs(e, 1))
		if err != nil {
			t.Fatal(err)
		}
		last = res.Locations[7]
	}
	if last != model.LocationUnknown {
		t.Errorf("after long absence location = %v, want unknown", last)
	}
}

func TestTransitionDetectionShrinksWindow(t *testing.T) {
	c := New(testReaders)
	// Dense reads build a confident rate estimate.
	for e := model.Epoch(1); e <= 30; e++ {
		if _, err := c.ProcessBatch(obs(e, 1, 7)); err != nil {
			t.Fatal(err)
		}
	}
	// Sudden silence: the transition detector must collapse the window
	// well before a full completeness window (ln(1/δ)/1 ≈ 3, but with the
	// pre-silence window grown the decisive factor is detection).
	away := model.Epoch(-1)
	for e := model.Epoch(31); e <= 80; e++ {
		res, err := c.ProcessBatch(obs(e, 1))
		if err != nil {
			t.Fatal(err)
		}
		if res.Locations[7] == model.LocationUnknown {
			away = e
			break
		}
	}
	if away < 0 {
		t.Fatal("tag never reported away")
	}
	if away > 45 {
		t.Errorf("transition detected only at epoch %d; expected a prompt collapse", away)
	}
}

// TestSameEpochReadGoesToLowestReader pins the tie-break when two
// readers read one tag in the same epoch: the lowest reader ID owns it,
// on every fresh cleaner.
func TestSameEpochReadGoesToLowestReader(t *testing.T) {
	b := model.NewBatch(1)
	b.AppendGroup(1, []model.Tag{42})
	b.AppendGroup(2, []model.Tag{42})
	for i := 0; i < 200; i++ {
		c := New(testReaders)
		res, err := c.ProcessBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Locations[42]; got != 0 {
			t.Fatalf("cleaner %d: location = %v, want L0 (reader 1)", i, got)
		}
	}
}

func TestLocationFollowsMostRecentReader(t *testing.T) {
	c := New(testReaders)
	for e := model.Epoch(1); e <= 5; e++ {
		if _, err := c.ProcessBatch(obs(e, 1, 7)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.ProcessBatch(obs(6, 2, 7))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Locations[7]; got != 1 {
		t.Errorf("location = %v, want L1 (most recent reader)", got)
	}
	if !res.Observed[7] {
		t.Error("tag read this epoch must be observed")
	}
	if res.Parents[7] != model.NoTag {
		t.Error("SMURF must not infer containment")
	}
}

func TestSparseReaderTagHeldPresent(t *testing.T) {
	// A tag owned by a period-20 (shelf-like) reader must be held present
	// between that reader's interrogation cycles: windows count owner
	// cycles, not wall-clock epochs.
	c := New(testReaders)
	for e := model.Epoch(1); e <= 200; e++ {
		var o *model.Batch
		if e%20 == 0 {
			o = obs(e, 3, 7)
		} else {
			o = obs(e, 3)
		}
		res, err := c.ProcessBatch(o)
		if err != nil {
			t.Fatal(err)
		}
		if e >= 20 && res.Locations[7] != 2 {
			t.Errorf("epoch %d: sparse tag reported %v, want L2", e, res.Locations[7])
		}
	}
}

func TestForgetAndLen(t *testing.T) {
	c := New(testReaders)
	if _, err := c.ProcessBatch(obs(1, 1, 7, 8)); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	c.Forget(7)
	if c.Len() != 1 {
		t.Fatalf("Len after Forget = %d, want 1", c.Len())
	}
}

func TestNoisyStreamAccuracy(t *testing.T) {
	// Statistical sanity: with a 0.7 read rate, the smoothed presence must
	// be far more accurate than the raw readings.
	rng := rand.New(rand.NewSource(3))
	c := New(testReaders)
	present, rawHits, smoothHits := 0, 0, 0
	for e := model.Epoch(1); e <= 400; e++ {
		read := rng.Float64() < 0.7
		var o *model.Batch
		if read {
			o = obs(e, 1, 7)
		} else {
			o = obs(e, 1)
		}
		res, err := c.ProcessBatch(o)
		if err != nil {
			t.Fatal(err)
		}
		if e <= 5 {
			continue // warm-up
		}
		present++
		if read {
			rawHits++
		}
		if res.Locations[7] == 0 {
			smoothHits++
		}
	}
	if smoothHits <= rawHits {
		t.Errorf("smoothing (%d/%d) must beat raw readings (%d/%d)",
			smoothHits, present, rawHits, present)
	}
	if float64(smoothHits)/float64(present) < 0.95 {
		t.Errorf("smoothed presence %d/%d below 95%%", smoothHits, present)
	}
}
