package compress

import (
	"maps"
	"slices"
	"testing"

	"spire/internal/event"
	"spire/internal/inference"
	"spire/internal/model"
)

// Fixture tags with fixed levels; levelOfT resolves them without the EPC
// codec so tests stay readable.
const (
	tP  = model.Tag(100) // pallet
	tP2 = model.Tag(101) // pallet
	tC1 = model.Tag(200) // case
	tC2 = model.Tag(201) // case
	tI1 = model.Tag(300) // item
	tI2 = model.Tag(301) // item
)

func levelOfT(g model.Tag) model.Level {
	switch {
	case g >= 300:
		return model.LevelItem
	case g >= 200:
		return model.LevelCase
	default:
		return model.LevelPallet
	}
}

const (
	l1 = model.LocationID(0)
	l2 = model.LocationID(1)
	l3 = model.LocationID(2)
	l4 = model.LocationID(3)
)

func res(now model.Epoch, locs map[model.Tag]model.LocationID, parents map[model.Tag]model.Tag) *inference.Result {
	r := &inference.Result{
		Now:       now,
		Locations: locs,
		Parents:   make(map[model.Tag]model.Tag, len(locs)),
		Observed:  map[model.Tag]bool{},
	}
	for t := range locs {
		r.Parents[t] = model.NoTag
	}
	for t, p := range parents {
		r.Parents[t] = p
	}
	return r
}

func wantEvents(t *testing.T, got, want []event.Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d\ngot:  %v\nwant: %v", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d:\ngot:  %v\nwant: %v", i, got[i], want[i])
		}
	}
}

func TestLevel1StationaryObjectEmitsOnce(t *testing.T) {
	c := NewLevel1(levelOfT)
	out := c.Compress(res(1, map[model.Tag]model.LocationID{tI1: l1}, nil))
	wantEvents(t, out, []event.Event{event.NewStartLocation(tI1, l1, 1)})
	for e := model.Epoch(2); e <= 10; e++ {
		if out := c.Compress(res(e, map[model.Tag]model.LocationID{tI1: l1}, nil)); len(out) != 0 {
			t.Fatalf("epoch %d: stationary object emitted %v", e, out)
		}
	}
	out = c.Compress(res(11, map[model.Tag]model.LocationID{tI1: l2}, nil))
	wantEvents(t, out, []event.Event{
		event.NewEndLocation(tI1, l1, 1, 11),
		event.NewStartLocation(tI1, l2, 11),
	})
}

func TestLevel1MissingAndReappear(t *testing.T) {
	c := NewLevel1(levelOfT)
	c.Compress(res(1, map[model.Tag]model.LocationID{tI1: l1}, nil))
	out := c.Compress(res(2, map[model.Tag]model.LocationID{tI1: model.LocationUnknown}, nil))
	wantEvents(t, out, []event.Event{
		event.NewEndLocation(tI1, l1, 1, 2),
		event.NewMissing(tI1, l1, 2),
	})
	// Still missing: the Missing message is a singleton, not repeated.
	out = c.Compress(res(3, map[model.Tag]model.LocationID{tI1: model.LocationUnknown}, nil))
	if len(out) != 0 {
		t.Fatalf("repeated missing emitted %v", out)
	}
	out = c.Compress(res(4, map[model.Tag]model.LocationID{tI1: l2}, nil))
	wantEvents(t, out, []event.Event{event.NewStartLocation(tI1, l2, 4)})
	// Disappearing again yields another Missing, now from l2.
	out = c.Compress(res(5, map[model.Tag]model.LocationID{tI1: model.LocationUnknown}, nil))
	wantEvents(t, out, []event.Event{
		event.NewEndLocation(tI1, l2, 4, 5),
		event.NewMissing(tI1, l2, 5),
	})
}

func TestLevel1ContainmentRange(t *testing.T) {
	c := NewLevel1(levelOfT)
	locs := map[model.Tag]model.LocationID{tC1: l1, tP: l1}
	out := c.Compress(res(1, locs, map[model.Tag]model.Tag{tC1: tP}))
	wantEvents(t, out, []event.Event{
		event.NewStartContainment(tC1, tP, 1),
		event.NewStartLocation(tP, l1, 1),
		event.NewStartLocation(tC1, l1, 1),
	})
	// Stable containment: nothing.
	if out := c.Compress(res(2, locs, map[model.Tag]model.Tag{tC1: tP})); len(out) != 0 {
		t.Fatalf("stable containment emitted %v", out)
	}
	// Container switch: End then Start, containment phase first.
	locs2 := map[model.Tag]model.LocationID{tC1: l1, tP: l1, tP2: l1}
	out = c.Compress(res(3, locs2, map[model.Tag]model.Tag{tC1: tP2}))
	wantEvents(t, out, []event.Event{
		event.NewEndContainment(tC1, tP, 1, 3),
		event.NewStartContainment(tC1, tP2, 3),
		event.NewStartLocation(tP2, l1, 3),
	})
}

func TestLevel1WithheldObjectUntouched(t *testing.T) {
	c := NewLevel1(levelOfT)
	c.Compress(res(1, map[model.Tag]model.LocationID{tI1: l1}, nil))
	// Epoch 2's result omits tI1 entirely (partial inference withheld it).
	if out := c.Compress(res(2, map[model.Tag]model.LocationID{tI2: l2}, nil)); len(out) != 1 {
		t.Fatalf("unexpected output %v", out)
	}
	// Epoch 3 re-reports the same location: still nothing for tI1.
	if out := c.Compress(res(3, map[model.Tag]model.LocationID{tI1: l1}, nil)); len(out) != 0 {
		t.Fatalf("withheld object state lost: %v", out)
	}
}

func TestLevel1RetireAndClose(t *testing.T) {
	c := NewLevel1(levelOfT)
	c.Compress(res(1, map[model.Tag]model.LocationID{tC1: l1, tP: l1, tI1: l1},
		map[model.Tag]model.Tag{tC1: tP}))
	out := c.Retire(tC1, 5)
	wantEvents(t, out, []event.Event{
		event.NewEndContainment(tC1, tP, 1, 5),
		event.NewEndLocation(tC1, l1, 1, 5),
	})
	if out := c.Retire(tC1, 6); out != nil {
		t.Fatalf("double retire emitted %v", out)
	}
	out = c.Close(9)
	wantEvents(t, out, []event.Event{
		event.NewEndLocation(tP, l1, 1, 9),
		event.NewEndLocation(tI1, l1, 1, 9),
	})
}

// TestLevel2Fig8 replays the paper's Fig. 8 scenario and checks the exact
// level-2 output at each step.
func TestLevel2Fig8(t *testing.T) {
	c := NewLevel2(levelOfT)

	// T1: pallet P with cases C1, C2 at L1.
	out := c.Compress(res(1,
		map[model.Tag]model.LocationID{tP: l1, tC1: l1, tC2: l1},
		map[model.Tag]model.Tag{tC1: tP, tC2: tP}))
	wantEvents(t, out, []event.Event{
		event.NewStartContainment(tC1, tP, 1),
		event.NewStartContainment(tC2, tP, 1),
		event.NewStartLocation(tP, l1, 1),
	})

	// T2: the group moves to L2; only the pallet's location is updated.
	out = c.Compress(res(2,
		map[model.Tag]model.LocationID{tP: l2, tC1: l2, tC2: l2},
		map[model.Tag]model.Tag{tC1: tP, tC2: tP}))
	wantEvents(t, out, []event.Event{
		event.NewEndLocation(tP, l1, 1, 2),
		event.NewStartLocation(tP, l2, 2),
	})

	// T3: the group splits — P and C1 move to L3, C2 stays at L2 and
	// leaves the pallet.
	out = c.Compress(res(3,
		map[model.Tag]model.LocationID{tP: l3, tC1: l3, tC2: l2},
		map[model.Tag]model.Tag{tC1: tP}))
	wantEvents(t, out, []event.Event{
		event.NewEndContainment(tC2, tP, 1, 3),
		event.NewEndLocation(tP, l2, 2, 3),
		event.NewStartLocation(tP, l3, 3),
		event.NewStartLocation(tC2, l2, 3),
	})

	// T4: C2 moves alone to L4; its location updates are no longer
	// suppressed.
	out = c.Compress(res(4,
		map[model.Tag]model.LocationID{tP: l3, tC1: l3, tC2: l4},
		map[model.Tag]model.Tag{tC1: tP}))
	wantEvents(t, out, []event.Event{
		event.NewEndLocation(tC2, l2, 3, 4),
		event.NewStartLocation(tC2, l4, 4),
	})
}

func TestLevel2SuppressesContainedLocations(t *testing.T) {
	c := NewLevel2(levelOfT)
	// An uncontained item with an open pair becomes contained: its pair
	// closes and subsequent moves emit nothing for it.
	c.Compress(res(1, map[model.Tag]model.LocationID{tI1: l1, tC1: l1}, nil))
	out := c.Compress(res(2, map[model.Tag]model.LocationID{tI1: l1, tC1: l1},
		map[model.Tag]model.Tag{tI1: tC1}))
	wantEvents(t, out, []event.Event{
		event.NewStartContainment(tI1, tC1, 2),
		event.NewEndLocation(tI1, l1, 1, 2),
	})
	out = c.Compress(res(3, map[model.Tag]model.LocationID{tI1: l2, tC1: l2},
		map[model.Tag]model.Tag{tI1: tC1}))
	wantEvents(t, out, []event.Event{
		event.NewEndLocation(tC1, l1, 1, 3),
		event.NewStartLocation(tC1, l2, 3),
	})
}

func TestLevel2ContainerSwitchKeepsSuppression(t *testing.T) {
	// An item re-packed directly from one case to another emits only the
	// containment switch — its location stays suppressed throughout, and
	// the decompressor keeps its reconstructed pair continuous.
	l2c := NewLevel2(levelOfT)
	d := NewDecompressor()
	var dec []event.Event
	feed := func(r *inference.Result) {
		out, err := d.Step(l2c.Compress(r))
		if err != nil {
			t.Fatal(err)
		}
		dec = append(dec, out...)
	}
	feed(res(1, map[model.Tag]model.LocationID{tC1: l1, tC2: l1, tI1: l1},
		map[model.Tag]model.Tag{tI1: tC1}))
	feed(res(2, map[model.Tag]model.LocationID{tC1: l1, tC2: l1, tI1: l1},
		map[model.Tag]model.Tag{tI1: tC2})) // switch containers in place
	feed(res(3, map[model.Tag]model.LocationID{tC1: l1, tC2: l2, tI1: l2},
		map[model.Tag]model.Tag{tI1: tC2})) // move with the new container

	var stays []event.Event
	for _, e := range dec {
		if e.Object == tI1 && !e.Kind.Containment() {
			stays = append(stays, e)
		}
	}
	want := []event.Event{
		event.NewStartLocation(tI1, l1, 1),
		event.NewEndLocation(tI1, l1, 1, 3),
		event.NewStartLocation(tI1, l2, 3),
	}
	if len(stays) != len(want) {
		t.Fatalf("item location events = %v, want %v", stays, want)
	}
	for i := range want {
		if stays[i] != want[i] {
			t.Errorf("event %d: got %v, want %v", i, stays[i], want[i])
		}
	}
}

// TestDecompressorFig8 checks that decompressing the level-2 stream of the
// Fig. 8 scenario yields exactly the level-1 stream.
func TestDecompressorFig8(t *testing.T) {
	l1c := NewLevel1(levelOfT)
	l2c := NewLevel2(levelOfT)
	d := NewDecompressor()

	steps := []*inference.Result{
		res(1, map[model.Tag]model.LocationID{tP: l1, tC1: l1, tC2: l1},
			map[model.Tag]model.Tag{tC1: tP, tC2: tP}),
		res(2, map[model.Tag]model.LocationID{tP: l2, tC1: l2, tC2: l2},
			map[model.Tag]model.Tag{tC1: tP, tC2: tP}),
		res(3, map[model.Tag]model.LocationID{tP: l3, tC1: l3, tC2: l2},
			map[model.Tag]model.Tag{tC1: tP}),
		res(4, map[model.Tag]model.LocationID{tP: l3, tC1: l3, tC2: l4},
			map[model.Tag]model.Tag{tC1: tP}),
	}
	var want, got []event.Event
	for _, r := range steps {
		want = append(want, l1c.Compress(r)...)
		dec, err := d.Step(l2c.Compress(r))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, dec...)
	}
	if err := event.CheckWellFormed(got, false); err != nil {
		t.Fatalf("decompressed stream malformed: %v", err)
	}
	compareByObject(t, got, want)
}

func TestDecompressorSegmentsMixedBatch(t *testing.T) {
	// A batch may concatenate several Compress/Retire outputs; containment
	// events after location events open a new segment. Here the pallet's
	// location arrives first, then a second segment attaches the case,
	// whose alignment must still see the pallet's pair.
	d := NewDecompressor()
	batch := []event.Event{
		event.NewStartLocation(tP, l1, 1),
		event.NewStartContainment(tC1, tP, 1),
	}
	out, err := d.Step(batch)
	if err != nil {
		t.Fatal(err)
	}
	wantEvents(t, out, []event.Event{
		event.NewStartLocation(tP, l1, 1),
		event.NewStartContainment(tC1, tP, 1),
		event.NewStartLocation(tC1, l1, 1),
	})
}

func TestDecompressorAlignsLateJoiner(t *testing.T) {
	// A new object joins a stationary container: level-2 emits only the
	// StartContainment, and the decompressor must synthesize the child's
	// StartLocation from the container's open pair.
	d := NewDecompressor()
	if _, err := d.Step([]event.Event{
		event.NewStartLocation(tP, l1, 1),
	}); err != nil {
		t.Fatal(err)
	}
	out, err := d.Step([]event.Event{event.NewStartContainment(tC1, tP, 5)})
	if err != nil {
		t.Fatal(err)
	}
	wantEvents(t, out, []event.Event{
		event.NewStartContainment(tC1, tP, 5),
		event.NewStartLocation(tC1, l1, 5),
	})
}

// compareByObject compares the location sub-streams of two event streams
// object by object, and the containment sub-streams as exact sequences.
func compareByObject(t *testing.T, got, want []event.Event) {
	t.Helper()
	gl, gc := event.SplitStreams(got)
	wl, wc := event.SplitStreams(want)
	if len(gc) != len(wc) {
		t.Fatalf("containment events: got %d, want %d\ngot:  %v\nwant: %v", len(gc), len(wc), gc, wc)
	}
	for i := range wc {
		if gc[i] != wc[i] {
			t.Errorf("containment event %d: got %v, want %v", i, gc[i], wc[i])
		}
	}
	perObj := func(evs []event.Event) map[model.Tag][]event.Event {
		m := make(map[model.Tag][]event.Event)
		for _, e := range evs {
			m[e.Object] = append(m[e.Object], e)
		}
		return m
	}
	gm, wm := perObj(gl), perObj(wl)
	for obj, ws := range wm {
		gs := gm[obj]
		if len(gs) != len(ws) {
			t.Errorf("object %d: got %d location events, want %d\ngot:  %v\nwant: %v",
				obj, len(gs), len(ws), gs, ws)
			continue
		}
		for i := range ws {
			if gs[i] != ws[i] {
				t.Errorf("object %d event %d: got %v, want %v", obj, i, gs[i], ws[i])
			}
		}
	}
	for obj := range gm {
		if _, ok := wm[obj]; !ok {
			t.Errorf("object %d: unexpected location events %v", obj, gm[obj])
		}
	}
}

// TestSparseResultRereadsMaps pins the sparse input form against stale
// rows: a producer that clears and refills one Result's maps every epoch,
// as the benchmark's ground-truth stream does, must be read afresh each
// time — by Rows and by Compress — exactly as if it had built a new
// Result.
func TestSparseResultRereadsMaps(t *testing.T) {
	reused := &inference.Result{
		Now:       1,
		Locations: map[model.Tag]model.LocationID{tP: l1, tC1: l1, tI1: l2},
		Parents:   map[model.Tag]model.Tag{tP: model.NoTag, tC1: tP, tI1: model.NoTag},
		Observed:  map[model.Tag]bool{tP: true},
	}
	rows := reused.Rows()
	if len(rows) != 3 || rows[0].Tag != tP || !rows[0].Observed || rows[1].Parent != tP {
		t.Fatalf("first read: rows %+v", rows)
	}
	viaReused, viaFresh := NewLevel1(levelOfT), NewLevel1(levelOfT)
	fresh := func() *inference.Result {
		return &inference.Result{
			Now:       reused.Now,
			Locations: maps.Clone(reused.Locations),
			Parents:   maps.Clone(reused.Parents),
			Observed:  map[model.Tag]bool{},
		}
	}
	wantEvents(t, viaReused.Compress(reused), viaFresh.Compress(fresh()))

	// Refill in place: the case moves to l3 on its own, the pallet drops
	// out of the result, a new item arrives, and the first item keeps its
	// containment (no Parents entry).
	reused.Now = 2
	clear(reused.Locations)
	clear(reused.Parents)
	reused.Locations[tC1], reused.Parents[tC1] = l3, model.NoTag
	reused.Locations[tI2], reused.Parents[tI2] = l2, model.NoTag
	reused.Locations[tI1] = l4
	want := []inference.Verdict{
		{Tag: tC1, Location: l3, Parent: model.NoTag, HasParent: true},
		{Tag: tI1, Location: l4},
		{Tag: tI2, Location: l2, Parent: model.NoTag, HasParent: true},
	}
	if got := reused.Rows(); !slices.Equal(got, want) {
		t.Fatalf("second read after refill: rows %+v, want %+v", got, want)
	}
	if _, ok := reused.Lookup(tP); ok {
		t.Error("cleared tag still has a row")
	}
	got := viaReused.Compress(reused)
	if len(got) == 0 {
		t.Fatal("refilled result compressed to nothing")
	}
	wantEvents(t, got, viaFresh.Compress(fresh()))
}
