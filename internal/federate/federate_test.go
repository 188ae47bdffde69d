package federate

import (
	"math/rand"
	"testing"

	"spire/internal/compress"
	"spire/internal/event"
	"spire/internal/inference"
	"spire/internal/model"
)

const (
	obj   = model.Tag(1)
	caseT = model.Tag(2)
	locA  = model.LocationID(0) // zone 0
	locB  = model.LocationID(5) // zone 1
)

func ingest(t *testing.T, m *Merger, zone ZoneID, evs ...event.Event) []event.Event {
	t.Helper()
	out, err := m.Ingest(zone, evs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestHandoffClosesStaleInterval(t *testing.T) {
	m := NewMerger()
	var all []event.Event
	all = append(all, ingest(t, m, 0, event.NewStartLocation(obj, locA, 1))...)
	// Zone 1 first sees the object at t=50 while zone 0's interval is
	// still open; zone 0 never emits an End (it just stops seeing it, or
	// its End arrives late).
	all = append(all, ingest(t, m, 1, event.NewStartLocation(obj, locB, 50))...)
	want := []event.Event{
		event.NewStartLocation(obj, locA, 1),
		event.NewEndLocation(obj, locA, 1, 50),
		event.NewStartLocation(obj, locB, 50),
	}
	if len(all) != len(want) {
		t.Fatalf("merged = %v, want %v", all, want)
	}
	for i := range want {
		if all[i] != want[i] {
			t.Errorf("event %d: got %v, want %v", i, all[i], want[i])
		}
	}
	if err := event.CheckWellFormed(all, false); err != nil {
		t.Fatal(err)
	}
}

func TestStaleEndDropped(t *testing.T) {
	m := NewMerger()
	var all []event.Event
	all = append(all, ingest(t, m, 0, event.NewStartLocation(obj, locA, 1))...)
	all = append(all, ingest(t, m, 1, event.NewStartLocation(obj, locB, 50))...)
	// Zone 0 belatedly reports an End (+ Missing) for the object it lost.
	late := ingest(t, m, 0,
		event.NewEndLocation(obj, locA, 1, 60),
		event.NewMissing(obj, locA, 60))
	if len(late) != 0 {
		t.Fatalf("stale zone-0 view must be dropped, got %v", late)
	}
	all = append(all, late...)
	if err := event.CheckWellFormed(all, false); err != nil {
		t.Fatal(err)
	}
}

func TestOwningZoneEndAndMissingForwarded(t *testing.T) {
	m := NewMerger()
	var all []event.Event
	all = append(all, ingest(t, m, 0, event.NewStartLocation(obj, locA, 1))...)
	all = append(all, m.EndEpoch()...)
	all = append(all, ingest(t, m, 0,
		event.NewEndLocation(obj, locA, 1, 30),
		event.NewMissing(obj, locA, 30))...)
	// The alarm is deferred to the epoch barrier, where no other zone
	// has claimed the object, so it is forwarded.
	all = append(all, m.EndEpoch()...)
	want := []event.Event{
		event.NewStartLocation(obj, locA, 1),
		event.NewEndLocation(obj, locA, 1, 30),
		event.NewMissing(obj, locA, 30),
	}
	if len(all) != len(want) {
		t.Fatalf("merged = %v", all)
	}
	for i := range want {
		if all[i] != want[i] {
			t.Errorf("event %d: got %v, want %v", i, all[i], want[i])
		}
	}
}

func TestDuplicateStartSuppressed(t *testing.T) {
	m := NewMerger()
	ingest(t, m, 0, event.NewStartLocation(obj, locA, 1))
	dup := ingest(t, m, 0, event.NewStartLocation(obj, locA, 5))
	if len(dup) != 0 {
		t.Fatalf("duplicate start must be suppressed, got %v", dup)
	}
}

func TestContainmentHandoff(t *testing.T) {
	m := NewMerger()
	var all []event.Event
	all = append(all, ingest(t, m, 0, event.NewStartContainment(obj, caseT, 1))...)
	// Zone 1 reports a different container without zone 0 ending the old
	// one.
	all = append(all, ingest(t, m, 1, event.NewStartContainment(obj, caseT+1, 40))...)
	want := []event.Event{
		event.NewStartContainment(obj, caseT, 1),
		event.NewEndContainment(obj, caseT, 1, 40),
		event.NewStartContainment(obj, caseT+1, 40),
	}
	for i := range want {
		if all[i] != want[i] {
			t.Fatalf("merged = %v, want %v", all, want)
		}
	}
	// A duplicate containment start is suppressed (but transfers
	// ownership); a mismatched end is dropped.
	if out := ingest(t, m, 0, event.NewStartContainment(obj, caseT+1, 50)); len(out) != 0 {
		t.Errorf("duplicate containment start must be suppressed: %v", out)
	}
	if out := ingest(t, m, 0, event.NewEndContainment(obj, caseT, 1, 60)); len(out) != 0 {
		t.Errorf("mismatched containment end must be dropped: %v", out)
	}
}

// TestContainmentStaleCloseDropped pins the ownership rules the package
// doc promises for containment: after a handoff, the stale zone cannot
// close the interval the new owner holds open, and the owner can.
func TestContainmentStaleCloseDropped(t *testing.T) {
	m := NewMerger()
	ingest(t, m, 0, event.NewStartContainment(obj, caseT, 1))
	// Handoff: zone 1 reports a different container; ownership moves to
	// zone 1 and zone 0's interval is closed at the handoff epoch.
	ingest(t, m, 1, event.NewStartContainment(obj, caseT+1, 40))
	// Zone 0's view is stale: its attempt to close the interval zone 1
	// now owns — with the matching container and open epoch — must drop.
	if out := ingest(t, m, 0, event.NewEndContainment(obj, caseT+1, 40, 60)); len(out) != 0 {
		t.Fatalf("stale zone-0 containment close must be dropped, got %v", out)
	}
	// The interval is still open: the owning zone can close it.
	out := ingest(t, m, 1, event.NewEndContainment(obj, caseT+1, 40, 70))
	want := event.NewEndContainment(obj, caseT+1, 40, 70)
	if len(out) != 1 || out[0] != want {
		t.Fatalf("owner close = %v, want [%v]", out, want)
	}
}

// TestContainmentDuplicateStartTransfersOwnership pins the silent
// ownership transfer on a same-container re-observation: the reporting
// zone becomes the owner and may close the interval, while the previous
// owner's close drops.
func TestContainmentDuplicateStartTransfersOwnership(t *testing.T) {
	m := NewMerger()
	ingest(t, m, 0, event.NewStartContainment(obj, caseT, 1))
	// Zone 1 re-observes the same containment: suppressed, but zone 1 is
	// now the most recent observer and owns the object.
	if out := ingest(t, m, 1, event.NewStartContainment(obj, caseT, 40)); len(out) != 0 {
		t.Fatalf("same-container start must be suppressed, got %v", out)
	}
	if out := ingest(t, m, 0, event.NewEndContainment(obj, caseT, 1, 50)); len(out) != 0 {
		t.Fatalf("previous owner's close must be dropped, got %v", out)
	}
	out := ingest(t, m, 1, event.NewEndContainment(obj, caseT, 1, 60))
	want := event.NewEndContainment(obj, caseT, 1, 60)
	if len(out) != 1 || out[0] != want {
		t.Fatalf("owner close = %v, want [%v]", out, want)
	}
}

// TestSameEpochHandoffClamped pins the semantics of a handoff arriving at
// the same epoch the stale interval opened: the stale interval is clamped
// to the single-epoch interval [Vs, Vs] — not suppressed, which would
// orphan its already-emitted Start — and the merged stream stays
// well-formed.
func TestSameEpochHandoffClamped(t *testing.T) {
	m := NewMerger()
	var all []event.Event
	all = append(all, ingest(t, m, 0, event.NewStartLocation(obj, locA, 10))...)
	all = append(all, ingest(t, m, 1, event.NewStartLocation(obj, locB, 10))...)
	all = append(all, m.EndEpoch()...)
	want := []event.Event{
		event.NewStartLocation(obj, locA, 10),
		event.NewEndLocation(obj, locA, 10, 10),
		event.NewStartLocation(obj, locB, 10),
	}
	if len(all) != len(want) {
		t.Fatalf("merged = %v, want %v", all, want)
	}
	for i := range want {
		if all[i] != want[i] {
			t.Errorf("event %d: got %v, want %v", i, all[i], want[i])
		}
	}
	all = append(all, m.Close(11)...)
	if err := event.CheckWellFormed(all, true); err != nil {
		t.Fatal(err)
	}

	// Same clamp for containment intervals.
	m = NewMerger()
	all = all[:0]
	all = append(all, ingest(t, m, 0, event.NewStartContainment(obj, caseT, 10))...)
	all = append(all, ingest(t, m, 1, event.NewStartContainment(obj, caseT+1, 10))...)
	wantC := []event.Event{
		event.NewStartContainment(obj, caseT, 10),
		event.NewEndContainment(obj, caseT, 10, 10),
		event.NewStartContainment(obj, caseT+1, 10),
	}
	if len(all) != len(wantC) {
		t.Fatalf("merged = %v, want %v", all, wantC)
	}
	for i := range wantC {
		if all[i] != wantC[i] {
			t.Errorf("event %d: got %v, want %v", i, all[i], wantC[i])
		}
	}
	all = append(all, m.Close(11)...)
	if err := event.CheckWellFormed(all, true); err != nil {
		t.Fatal(err)
	}
}

// TestMissingRetractedAtBarrier pins the epoch barrier: a zone's Missing
// for an object another zone claims in the same epoch is retracted, in
// both zone ingest orders.
func TestMissingRetractedAtBarrier(t *testing.T) {
	// Losing zone first: the alarm is staged, then retracted when the
	// gaining zone's Start arrives before the barrier.
	m := NewMerger()
	var all []event.Event
	all = append(all, ingest(t, m, 0, event.NewStartLocation(obj, locA, 1))...)
	all = append(all, m.EndEpoch()...)
	all = append(all, ingest(t, m, 0,
		event.NewEndLocation(obj, locA, 1, 50),
		event.NewMissing(obj, locA, 50))...)
	all = append(all, ingest(t, m, 1, event.NewStartLocation(obj, locB, 50))...)
	if extra := m.EndEpoch(); len(extra) != 0 {
		t.Fatalf("alarm must be retracted at the barrier, got %v", extra)
	}
	for _, e := range all {
		if e.Kind == event.Missing {
			t.Fatalf("merged stream contains a retracted alarm: %v", all)
		}
	}
	all = append(all, m.Close(60)...)
	if err := event.CheckWellFormed(all, true); err != nil {
		t.Fatal(err)
	}

	// Gaining zone first: ownership moves on the Start, so the losing
	// zone's End and Missing are dropped as stale on arrival.
	m = NewMerger()
	all = all[:0]
	all = append(all, ingest(t, m, 0, event.NewStartLocation(obj, locA, 1))...)
	all = append(all, m.EndEpoch()...)
	all = append(all, ingest(t, m, 1, event.NewStartLocation(obj, locB, 50))...)
	all = append(all, ingest(t, m, 0,
		event.NewEndLocation(obj, locA, 1, 50),
		event.NewMissing(obj, locA, 50))...)
	if extra := m.EndEpoch(); len(extra) != 0 {
		t.Fatalf("stale alarm must be dropped, got %v", extra)
	}
	for _, e := range all {
		if e.Kind == event.Missing {
			t.Fatalf("merged stream contains a stale alarm: %v", all)
		}
	}
	all = append(all, m.Close(60)...)
	if err := event.CheckWellFormed(all, true); err != nil {
		t.Fatal(err)
	}
}

// TestMissingSingleAlarm pins "at most one alarm per in-transit object":
// an unclaimed object's first Missing seizes ownership so later reports
// from other zones drop, repeated reports from the owner latch, and a
// reappearance re-arms the alarm.
func TestMissingSingleAlarm(t *testing.T) {
	m := NewMerger()
	var all []event.Event
	// Two zones report an object neither has ever started (e.g. both saw
	// it before the merger's horizon). Only one alarm survives.
	all = append(all, ingest(t, m, 0, event.NewMissing(obj, locA, 5))...)
	all = append(all, ingest(t, m, 1, event.NewMissing(obj, locB, 5))...)
	all = append(all, m.EndEpoch()...)
	if len(all) != 1 || all[0] != event.NewMissing(obj, locA, 5) {
		t.Fatalf("merged = %v, want exactly [Missing(obj, locA, 5)]", all)
	}
	// The owner repeating the alarm (e.g. after a zone restart) stays
	// latched.
	all = append(all, ingest(t, m, 0, event.NewMissing(obj, locA, 8))...)
	all = append(all, m.EndEpoch()...)
	if len(all) != 1 {
		t.Fatalf("repeated alarm must latch, merged = %v", all)
	}
	// Reappearing clears the latch; a fresh disappearance alarms again.
	all = append(all, ingest(t, m, 0, event.NewStartLocation(obj, locA, 20))...)
	all = append(all, m.EndEpoch()...)
	all = append(all, ingest(t, m, 0,
		event.NewEndLocation(obj, locA, 20, 30),
		event.NewMissing(obj, locA, 30))...)
	all = append(all, m.EndEpoch()...)
	var alarms int
	for _, e := range all {
		if e.Kind == event.Missing {
			alarms++
		}
	}
	if alarms != 2 {
		t.Fatalf("want 2 alarms across 2 disappearances, merged = %v", all)
	}
	if err := event.CheckWellFormed(all, false); err != nil {
		t.Fatal(err)
	}
}

func TestMergerRejectsBadInput(t *testing.T) {
	m := NewMerger()
	if _, err := m.Ingest(0, []event.Event{{Kind: event.StartLocation}}); err == nil {
		t.Error("invalid event must be rejected")
	}
	m = NewMerger() // the first error is sticky
	ingest(t, m, 0, event.NewStartLocation(obj, locA, 100))
	if _, err := m.Ingest(0, []event.Event{event.NewStartLocation(caseT, locA, 50)}); err == nil {
		t.Error("time regression must be rejected")
	}
}

// TestMergerErrorIsSticky: a batch rejected mid-way has already applied
// its first events, so the merger refuses everything after it with the
// same error and emits nothing at the barrier or on Close.
func TestMergerErrorIsSticky(t *testing.T) {
	for _, viaMergeEpoch := range []bool{false, true} {
		m := NewMerger()
		bad := []event.Event{
			event.NewStartLocation(obj, locA, 1),
			{Kind: event.StartLocation},
			event.NewStartLocation(caseT, locA, 1),
		}
		next := []event.Event{event.NewStartLocation(caseT, locB, 2)}
		var first, second error
		if viaMergeEpoch {
			_, first = m.MergeEpoch(1, [][]event.Event{bad}, false)
			_, second = m.MergeEpoch(2, [][]event.Event{next}, false)
		} else {
			_, first = m.Ingest(0, bad)
			_, second = m.Ingest(0, next)
		}
		if first == nil || second != first {
			t.Fatalf("MergeEpoch %v: first error %v, then %v; want the same error twice", viaMergeEpoch, first, second)
		}
		if _, err := m.Ingest(1, nil); err != first {
			t.Errorf("MergeEpoch %v: empty Ingest after failure returned %v", viaMergeEpoch, err)
		}
		if out := m.EndEpoch(); len(out) != 0 {
			t.Errorf("MergeEpoch %v: EndEpoch after failure emitted %v", viaMergeEpoch, out)
		}
		if out := m.Close(9); len(out) != 0 {
			t.Errorf("MergeEpoch %v: Close after failure emitted %v", viaMergeEpoch, out)
		}
	}
}

func TestCloseEndsEverything(t *testing.T) {
	m := NewMerger()
	ingest(t, m, 0,
		event.NewStartContainment(obj, caseT, 1),
		event.NewStartLocation(obj, locA, 1),
		event.NewStartLocation(caseT, locA, 1))
	out := m.Close(99)
	if len(out) != 3 {
		t.Fatalf("Close emitted %v", out)
	}
	if m.Objects() != 2 {
		t.Errorf("Objects = %d, want 2", m.Objects())
	}
	if extra := m.Close(100); len(extra) != 0 {
		t.Errorf("second Close must be empty, got %v", extra)
	}
}

// TestRandomizedZonesStayWellFormed drives two per-zone level-1
// compressors with random object movements — each zone only sees the
// objects currently in its half of the warehouse and believes the rest
// have gone missing — and checks that the merged stream is always
// well-formed with at most one open interval per object.
func TestRandomizedZonesStayWellFormed(t *testing.T) {
	levelOf := func(model.Tag) model.Level { return model.LevelItem }
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := NewMerger()
		comps := [2]*compress.Level1{compress.NewLevel1(levelOf), compress.NewLevel1(levelOf)}
		var merged []event.Event

		const nObjects = 8
		zone := make([]int, nObjects) // current zone per object
		loc := make([]model.LocationID, nObjects)
		for i := range loc {
			zone[i] = rng.Intn(2)
			loc[i] = model.LocationID(zone[i]*4 + rng.Intn(4))
		}
		for epoch := model.Epoch(1); epoch <= 150; epoch++ {
			for i := range loc {
				if rng.Float64() < 0.1 {
					zone[i] = rng.Intn(2)
					loc[i] = model.LocationID(zone[i]*4 + rng.Intn(4))
				}
			}
			for z := 0; z < 2; z++ {
				res := &inference.Result{
					Now:       epoch,
					Locations: map[model.Tag]model.LocationID{},
					Parents:   map[model.Tag]model.Tag{},
					Observed:  map[model.Tag]bool{},
				}
				for i := range loc {
					g := model.Tag(i + 1)
					if zone[i] == z {
						res.Locations[g] = loc[i]
						res.Parents[g] = model.NoTag
					} else if epoch > 1 {
						// The other zone's view: the object is gone.
						res.Locations[g] = model.LocationUnknown
						res.Parents[g] = model.NoTag
					}
				}
				out, err := m.Ingest(ZoneID(z), comps[z].Compress(res))
				if err != nil {
					t.Fatalf("seed %d epoch %d zone %d: %v", seed, epoch, z, err)
				}
				merged = append(merged, out...)
			}
			merged = append(merged, m.EndEpoch()...)
		}
		merged = append(merged, m.Close(151)...)
		if err := event.CheckWellFormed(merged, true); err != nil {
			t.Fatalf("seed %d: merged stream: %v", seed, err)
		}
	}
}

// TestTwoZonePipelineWellFormed merges two synthetic zone streams of an
// object ping-ponging between zones and checks global well-formedness.
func TestTwoZonePipelineWellFormed(t *testing.T) {
	m := NewMerger()
	var merged []event.Event
	// Zone streams as their compressors would emit them, interleaved by
	// epoch. Zone 0 covers locA, zone 1 covers locB; each zone opens the
	// object when it arrives and reports it missing a while after it
	// leaves (its local view).
	type batch struct {
		zone ZoneID
		evs  []event.Event
	}
	batches := []batch{
		{0, []event.Event{event.NewStartLocation(obj, locA, 1)}},
		{1, []event.Event{event.NewStartLocation(obj, locB, 20)}},
		{0, []event.Event{event.NewEndLocation(obj, locA, 1, 25), event.NewMissing(obj, locA, 25)}},
		{0, []event.Event{event.NewStartLocation(obj, locA, 40)}},
		{1, []event.Event{event.NewEndLocation(obj, locB, 20, 45), event.NewMissing(obj, locB, 45)}},
		{1, []event.Event{event.NewStartLocation(obj, locB, 60)}},
	}
	for _, b := range batches {
		out, err := m.Ingest(b.zone, b.evs)
		if err != nil {
			t.Fatal(err)
		}
		merged = append(merged, out...)
	}
	merged = append(merged, m.Close(99)...)
	if err := event.CheckWellFormed(merged, true); err != nil {
		t.Fatalf("merged stream: %v\n%v", err, merged)
	}
	// Exactly one open interval at any time: the object's merged history
	// must be locA, locB, locA, locB with no overlaps.
	var seq []model.LocationID
	for _, e := range merged {
		if e.Kind == event.StartLocation {
			seq = append(seq, e.Location)
		}
	}
	want := []model.LocationID{locA, locB, locA, locB}
	if len(seq) != len(want) {
		t.Fatalf("location sequence = %v, want %v", seq, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("location sequence = %v, want %v", seq, want)
		}
	}
}
