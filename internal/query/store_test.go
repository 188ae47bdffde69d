package query

import (
	"testing"

	"spire/internal/event"
	"spire/internal/model"
)

const (
	pallet = model.Tag(100)
	caseA  = model.Tag(200)
	caseB  = model.Tag(201)
	item1  = model.Tag(300)
	item2  = model.Tag(301)
)

const (
	dock  = model.LocationID(0)
	belt  = model.LocationID(1)
	shelf = model.LocationID(2)
)

// feedScenario loads a small but complete life cycle:
//
//	t=1   item1, item2 in caseA; caseA in pallet; everything at dock
//	t=10  group moves to belt
//	t=20  caseA leaves the pallet, moves to shelf with items
//	t=30  item2 leaves caseA (stays at shelf)
//	t=40  item2 goes missing
//	t=50  item2 reappears at belt
//	t=60  everything still open
func newScenario(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	evs := []event.Event{
		event.NewStartContainment(caseA, pallet, 1),
		event.NewStartContainment(item1, caseA, 1),
		event.NewStartContainment(item2, caseA, 1),
		event.NewStartLocation(pallet, dock, 1),
		event.NewStartLocation(caseA, dock, 1),
		event.NewStartLocation(item1, dock, 1),
		event.NewStartLocation(item2, dock, 1),

		event.NewEndLocation(pallet, dock, 1, 10),
		event.NewStartLocation(pallet, belt, 10),
		event.NewEndLocation(caseA, dock, 1, 10),
		event.NewStartLocation(caseA, belt, 10),
		event.NewEndLocation(item1, dock, 1, 10),
		event.NewStartLocation(item1, belt, 10),
		event.NewEndLocation(item2, dock, 1, 10),
		event.NewStartLocation(item2, belt, 10),

		event.NewEndContainment(caseA, pallet, 1, 20),
		event.NewEndLocation(caseA, belt, 10, 20),
		event.NewStartLocation(caseA, shelf, 20),
		event.NewEndLocation(item1, belt, 10, 20),
		event.NewStartLocation(item1, shelf, 20),
		event.NewEndLocation(item2, belt, 10, 20),
		event.NewStartLocation(item2, shelf, 20),

		event.NewEndContainment(item2, caseA, 1, 30),

		event.NewEndLocation(item2, shelf, 20, 40),
		event.NewMissing(item2, shelf, 40),

		event.NewStartLocation(item2, belt, 50),
	}
	if err := s.Feed(evs...); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestLocationAt(t *testing.T) {
	s := newScenario(t)
	cases := []struct {
		obj  model.Tag
		t    model.Epoch
		want model.LocationID
		ok   bool
	}{
		{item1, 5, dock, true},
		{item1, 10, belt, true}, // half-open: the new stay covers its Vs
		{item1, 15, belt, true},
		{item1, 25, shelf, true},
		{item1, 1000, shelf, true}, // open interval extends forward
		{item2, 45, 0, false},      // missing window
		{item2, 55, belt, true},
		{item2, 0, 0, false}, // before first sighting
		{model.Tag(999), 5, 0, false},
	}
	for _, c := range cases {
		got, ok := s.LocationAt(c.obj, c.t)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("LocationAt(%d, %d) = %v,%v; want %v,%v", c.obj, c.t, got, ok, c.want, c.ok)
		}
	}
}

func TestContainerAt(t *testing.T) {
	s := newScenario(t)
	if c, ok := s.ContainerAt(item2, 15); !ok || c != caseA {
		t.Errorf("item2@15 container = %d,%v; want caseA", c, ok)
	}
	if _, ok := s.ContainerAt(item2, 35); ok {
		t.Error("item2@35 must be uncontained")
	}
	if c, ok := s.ContainerAt(caseA, 10); !ok || c != pallet {
		t.Errorf("caseA@10 container = %d,%v; want pallet", c, ok)
	}
	if _, ok := s.ContainerAt(caseA, 25); ok {
		t.Error("caseA@25 must be uncontained")
	}
	if _, ok := s.ContainerAt(pallet, 5); ok {
		t.Error("pallet must never be contained")
	}
}

func TestTopContainerAt(t *testing.T) {
	s := newScenario(t)
	if got := s.TopContainerAt(item1, 5); got != pallet {
		t.Errorf("item1@5 top = %d, want pallet", got)
	}
	if got := s.TopContainerAt(item1, 25); got != caseA {
		t.Errorf("item1@25 top = %d, want caseA", got)
	}
	if got := s.TopContainerAt(item2, 35); got != item2 {
		t.Errorf("item2@35 top = %d, want itself", got)
	}
}

func TestContentsAt(t *testing.T) {
	s := newScenario(t)
	got := s.ContentsAt(caseA, 5)
	if len(got) != 2 || got[0] != item1 || got[1] != item2 {
		t.Errorf("caseA@5 contents = %v, want [item1 item2]", got)
	}
	got = s.ContentsAt(caseA, 35)
	if len(got) != 1 || got[0] != item1 {
		t.Errorf("caseA@35 contents = %v, want [item1]", got)
	}
	all := s.TransitiveContentsAt(pallet, 5)
	if len(all) != 3 {
		t.Errorf("pallet@5 transitive contents = %v, want 3 objects", all)
	}
	if len(s.TransitiveContentsAt(pallet, 25)) != 0 {
		t.Error("pallet@25 must be empty")
	}
}

func TestObjectsAt(t *testing.T) {
	s := newScenario(t)
	got := s.ObjectsAt(dock, 5)
	if len(got) != 4 {
		t.Errorf("dock@5 = %v, want 4 objects", got)
	}
	got = s.ObjectsAt(shelf, 45)
	if len(got) != 2 || got[0] != caseA || got[1] != item1 {
		t.Errorf("shelf@45 = %v, want [caseA item1]", got)
	}
	if len(s.ObjectsAt(belt, 5)) != 0 {
		t.Error("belt@5 must be empty")
	}
	// The pallet's stay is still open; item2 left and returned, and must
	// not be double-listed.
	got = s.ObjectsAt(belt, 55)
	if len(got) != 2 || got[0] != pallet || got[1] != item2 {
		t.Errorf("belt@55 = %v, want [pallet item2]", got)
	}
}

func TestHistoryAndPath(t *testing.T) {
	s := newScenario(t)
	h := s.History(item2)
	if len(h) != 4 {
		t.Fatalf("item2 history = %v, want 4 stays", h)
	}
	if h[2].Ve != 40 {
		t.Errorf("third stay must close at 40: %+v", h[2])
	}
	if h[3].Ve != model.InfiniteEpoch {
		t.Errorf("final stay must be open: %+v", h[3])
	}
	p := s.Path(item2)
	want := []model.LocationID{dock, belt, shelf, belt}
	if len(p) != len(want) {
		t.Fatalf("path = %v, want %v", p, want)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("path = %v, want %v", p, want)
		}
	}
	if n := len(s.Containments(item2)); n != 1 {
		t.Errorf("item2 containments = %d, want 1", n)
	}
}

func TestDwellTime(t *testing.T) {
	s := newScenario(t)
	if d := s.DwellTime(item1, belt, 100); d != 10 {
		t.Errorf("item1 belt dwell = %d, want 10", d)
	}
	// Open interval counts up to asOf.
	if d := s.DwellTime(item1, shelf, 100); d != 80 {
		t.Errorf("item1 shelf dwell = %d, want 80", d)
	}
	if d := s.DwellTime(item2, belt, 60); d != 20 {
		t.Errorf("item2 belt dwell (two stays) = %d, want 20", d)
	}
	if d := s.DwellTime(item1, model.LocationID(9), 100); d != 0 {
		t.Errorf("never-visited location dwell = %d, want 0", d)
	}
}

func TestCoLocated(t *testing.T) {
	s := newScenario(t)
	if !s.CoLocated(item1, item2, 25) {
		t.Error("items must be co-located on the shelf at 25")
	}
	if s.CoLocated(item1, item2, 55) {
		t.Error("items must not be co-located at 55")
	}
	if s.CoLocated(item1, item2, 45) {
		t.Error("a missing object is co-located with nothing")
	}
}

func TestTogetherIntervals(t *testing.T) {
	s := newScenario(t)
	// item1 and item2 share dock [1,10), belt [10,20), shelf [20,40);
	// merged that is one continuous span [1,40).
	spans := s.TogetherIntervals(item1, item2)
	if len(spans) != 1 || spans[0].Vs != 1 || spans[0].Ve != 40 {
		t.Errorf("item1/item2 together = %+v, want [{1 40}]", spans)
	}
	// item2 and the pallet: together at dock and belt [1,20), then apart
	// (pallet stays on the belt while item2 goes to the shelf), and
	// together again when item2 returns to the belt at 50 (open-ended).
	spans = s.TogetherIntervals(item2, pallet)
	if len(spans) != 2 {
		t.Fatalf("item2/pallet together = %+v, want 2 spans", spans)
	}
	if spans[0].Vs != 1 || spans[0].Ve != 20 {
		t.Errorf("first span = %+v, want {1 20}", spans[0])
	}
	if spans[1].Vs != 50 || spans[1].Ve != model.InfiniteEpoch {
		t.Errorf("second span = %+v, want {50 inf}", spans[1])
	}
	if got := s.TogetherIntervals(item1, model.Tag(999)); len(got) != 0 {
		t.Errorf("unknown object together = %+v, want none", got)
	}
}

func TestMissingQueries(t *testing.T) {
	s := newScenario(t)
	reports := s.MissingReports(item2)
	if len(reports) != 1 || reports[0].At != 40 || reports[0].From != shelf {
		t.Fatalf("missing reports = %+v", reports)
	}
	if got := s.MissingAt(45); len(got) != 1 || got[0] != item2 {
		t.Errorf("MissingAt(45) = %v, want [item2]", got)
	}
	if got := s.MissingAt(55); len(got) != 0 {
		t.Errorf("MissingAt(55) = %v, want none (reappeared)", got)
	}
	if got := s.MissingAt(5); len(got) != 0 {
		t.Errorf("MissingAt(5) = %v, want none (before report)", got)
	}
}

func TestObjectsAndEvents(t *testing.T) {
	s := newScenario(t)
	objs := s.Objects()
	if len(objs) != 4 {
		t.Errorf("Objects = %v, want 4", objs)
	}
	if s.Events() == 0 {
		t.Error("Events must count fed events")
	}
}

func TestFeedRejectsMalformed(t *testing.T) {
	cases := [][]event.Event{
		{event.NewEndLocation(1, dock, 1, 5)},
		{event.NewStartLocation(1, dock, 1), event.NewStartLocation(1, belt, 5)},
		{event.NewStartLocation(1, dock, 1), event.NewEndLocation(1, belt, 1, 5)},
		{event.NewEndContainment(1, 2, 1, 5)},
		{event.NewStartContainment(1, 2, 1), event.NewStartContainment(1, 3, 5)},
		{event.NewStartContainment(1, 2, 1), event.NewEndContainment(1, 3, 1, 5)},
		{event.NewStartLocation(1, dock, 1), event.NewMissing(1, dock, 5)},
		{event.NewStartLocation(1, dock, 9), event.NewEndLocation(1, dock, 9, 12), event.NewStartLocation(1, belt, 3)},
		{{Kind: event.Kind(99), Object: 1}},
	}
	for i, evs := range cases {
		s := NewStore()
		if err := s.Feed(evs...); err == nil {
			t.Errorf("case %d: malformed stream accepted", i)
		}
	}
}

// TestRejectedEventLeavesStreamTime pins that a rejected event does not
// advance stream time: an end without a start, emitted at 100, must not
// make a valid start at 50 look like time running backwards.
func TestRejectedEventLeavesStreamTime(t *testing.T) {
	s := NewStore()
	if err := s.Feed(event.NewEndLocation(7, dock, 1, 100)); err == nil {
		t.Fatal("end without a start accepted")
	}
	if err := s.Feed(event.NewStartLocation(8, dock, 50)); err != nil {
		t.Fatalf("valid start after a rejected event: %v", err)
	}
	if s.Events() != 1 {
		t.Fatalf("Events() = %d, want 1", s.Events())
	}
}
