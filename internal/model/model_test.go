package model

import (
	"testing"
	"testing/quick"
)

func TestLevelString(t *testing.T) {
	cases := []struct {
		lvl  Level
		want string
	}{
		{LevelItem, "item"},
		{LevelCase, "case"},
		{LevelPallet, "pallet"},
		{Level(9), "level(9)"},
	}
	for _, c := range cases {
		if got := c.lvl.String(); got != c.want {
			t.Errorf("Level(%d).String() = %q, want %q", c.lvl, got, c.want)
		}
	}
}

func TestLevelValid(t *testing.T) {
	for _, l := range []Level{LevelItem, LevelCase, LevelPallet} {
		if !l.Valid() {
			t.Errorf("Level %v should be valid", l)
		}
	}
	if Level(3).Valid() {
		t.Error("Level(3) should be invalid")
	}
}

func TestLocationIDKnown(t *testing.T) {
	if !LocationID(0).Known() || !LocationID(5).Known() {
		t.Error("non-negative location IDs must be Known")
	}
	if LocationUnknown.Known() || LocationNone.Known() {
		t.Error("sentinel locations must not be Known")
	}
}

func TestLocationIDString(t *testing.T) {
	if got := LocationUnknown.String(); got != "unknown" {
		t.Errorf("LocationUnknown.String() = %q", got)
	}
	if got := LocationNone.String(); got != "none" {
		t.Errorf("LocationNone.String() = %q", got)
	}
	if got := LocationID(3).String(); got != "L3" {
		t.Errorf("LocationID(3).String() = %q", got)
	}
}

func TestReaderActive(t *testing.T) {
	r := Reader{Period: 10}
	if !r.Active(0) || !r.Active(10) || !r.Active(20) {
		t.Error("reader with period 10 must be active at multiples of 10")
	}
	if r.Active(5) || r.Active(11) {
		t.Error("reader with period 10 must be inactive off the period")
	}
	every := Reader{Period: 1}
	for e := Epoch(0); e < 5; e++ {
		if !every.Active(e) {
			t.Errorf("period-1 reader must always be active (epoch %d)", e)
		}
	}
	zero := Reader{}
	if !zero.Active(7) {
		t.Error("zero-period reader must default to always active")
	}
}

func testLocations() []Location {
	return []Location{
		{ID: 0, Name: "door"},
		{ID: 1, Name: "belt"},
		{ID: 2, Name: "shelf"},
		{ID: 3, Name: "exit", Exit: true},
	}
}

func newTestWorld(t *testing.T) *World {
	t.Helper()
	w, err := NewWorld(testLocations())
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	return w
}

func TestNewWorldRejectsBadIDs(t *testing.T) {
	_, err := NewWorld([]Location{{ID: 1, Name: "oops"}})
	if err == nil {
		t.Fatal("NewWorld must reject non-dense location IDs")
	}
}

func TestWorldEnterAndLookup(t *testing.T) {
	w := newTestWorld(t)
	w.SetNow(5)
	st, err := w.Enter(10, LevelCase, 0)
	if err != nil {
		t.Fatalf("Enter: %v", err)
	}
	if st.Entered != 5 {
		t.Errorf("Entered = %d, want 5", st.Entered)
	}
	if !w.Resides(10, 0) {
		t.Error("object should reside at location 0")
	}
	if w.Resides(10, 1) {
		t.Error("object should not reside at location 1")
	}
	if _, err := w.Enter(10, LevelCase, 0); err == nil {
		t.Error("duplicate Enter must fail")
	}
	if _, err := w.Enter(NoTag, LevelCase, 0); err == nil {
		t.Error("Enter with zero tag must fail")
	}
}

func TestWorldContainMovesSubtree(t *testing.T) {
	w := newTestWorld(t)
	mustEnter(t, w, 1, LevelPallet, 0)
	mustEnter(t, w, 2, LevelCase, 1)
	mustEnter(t, w, 3, LevelItem, 1)
	if err := w.Contain(3, 2); err != nil {
		t.Fatalf("Contain item in case: %v", err)
	}
	// Containing the case in the pallet must drag the item to loc 0 too.
	if err := w.Contain(2, 1); err != nil {
		t.Fatalf("Contain case in pallet: %v", err)
	}
	if got := w.LocationOf(3); got != 0 {
		t.Errorf("item location = %v, want L0 (moved with its case)", got)
	}
	if !w.Contained(3, 2, 0) {
		t.Error("Contained(3,2,L0) should hold")
	}
	if w.Contained(3, 1, 0) {
		t.Error("Contained is direct containment only; item is not directly in the pallet")
	}
	if got := w.TopLevelContainer(3); got != 1 {
		t.Errorf("TopLevelContainer(3) = %d, want 1", got)
	}
}

func TestWorldContainErrors(t *testing.T) {
	w := newTestWorld(t)
	mustEnter(t, w, 1, LevelCase, 0)
	mustEnter(t, w, 2, LevelItem, 0)
	if err := w.Contain(2, 99); err == nil {
		t.Error("Contain with absent outer must fail")
	}
	if err := w.Contain(99, 1); err == nil {
		t.Error("Contain with absent inner must fail")
	}
	if err := w.Contain(1, 1); err == nil {
		t.Error("self-containment must fail")
	}
	if err := w.Contain(2, 1); err != nil {
		t.Fatalf("Contain: %v", err)
	}
	if err := w.Contain(2, 1); err == nil {
		t.Error("double containment must fail")
	}
}

func TestWorldMoveAndUncontain(t *testing.T) {
	w := newTestWorld(t)
	mustEnter(t, w, 1, LevelCase, 0)
	mustEnter(t, w, 2, LevelItem, 0)
	if err := w.Contain(2, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.Move(1, 2); err != nil {
		t.Fatal(err)
	}
	if got := w.LocationOf(2); got != 2 {
		t.Errorf("contained item must move with its case; got %v", got)
	}
	w.Uncontain(2)
	if err := w.Move(1, 1); err != nil {
		t.Fatal(err)
	}
	if got := w.LocationOf(2); got != 2 {
		t.Errorf("uncontained item must stay put; got %v", got)
	}
	if got := w.ParentOf(2); got != NoTag {
		t.Errorf("ParentOf after Uncontain = %d, want NoTag", got)
	}
	// Uncontain of absent or parentless tags must be a no-op.
	w.Uncontain(2)
	w.Uncontain(12345)
}

func TestWorldDepart(t *testing.T) {
	w := newTestWorld(t)
	mustEnter(t, w, 1, LevelCase, 0)
	mustEnter(t, w, 2, LevelItem, 0)
	if err := w.Contain(2, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.Depart(1); err == nil {
		t.Error("Depart of a non-empty container must fail")
	}
	w.SetNow(9)
	if err := w.Depart(2); err != nil {
		t.Fatalf("Depart(2): %v", err)
	}
	if w.Lookup(2) != nil {
		t.Error("departed object must vanish from the table")
	}
	if len(w.Lookup(1).Children) != 0 {
		t.Error("departing a child must detach it from its parent")
	}
	if err := w.Depart(1); err != nil {
		t.Fatalf("Depart(1): %v", err)
	}
	if err := w.Depart(1); err == nil {
		t.Error("double Depart must fail")
	}
	if got := w.LocationOf(1); got != LocationNone {
		t.Errorf("LocationOf departed = %v, want none", got)
	}
}

func TestWorldSteal(t *testing.T) {
	w := newTestWorld(t)
	mustEnter(t, w, 1, LevelCase, 2)
	mustEnter(t, w, 2, LevelItem, 2)
	if err := w.Contain(2, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.Steal(2); err != nil {
		t.Fatalf("Steal: %v", err)
	}
	if got := w.LocationOf(2); got != LocationUnknown {
		t.Errorf("stolen object location = %v, want unknown", got)
	}
	if got := w.ParentOf(2); got != NoTag {
		t.Errorf("stolen object must lose its container; parent = %d", got)
	}
	if w.Lookup(2) == nil {
		t.Error("stolen object must remain in the object table")
	}
	if err := w.Steal(77); err == nil {
		t.Error("Steal of absent tag must fail")
	}
}

func TestWorldAtAndObjects(t *testing.T) {
	w := newTestWorld(t)
	mustEnter(t, w, 3, LevelItem, 1)
	mustEnter(t, w, 1, LevelItem, 1)
	mustEnter(t, w, 2, LevelItem, 0)
	at := w.At(1)
	if len(at) != 2 || at[0] != 1 || at[1] != 3 {
		t.Errorf("At(1) = %v, want [1 3]", at)
	}
	all := w.Objects()
	if len(all) != 3 || all[0] != 1 || all[2] != 3 {
		t.Errorf("Objects() = %v, want [1 2 3]", all)
	}
	if w.Len() != 3 {
		t.Errorf("Len = %d, want 3", w.Len())
	}
}

func TestWorldClockMonotonic(t *testing.T) {
	w := newTestWorld(t)
	w.SetNow(10)
	w.SetNow(3) // ignored: time never moves backwards
	if w.Now() != 10 {
		t.Errorf("Now = %d, want 10", w.Now())
	}
}

// Property: moving a container always keeps every descendant co-located
// with it, for arbitrary containment trees.
func TestQuickSubtreeColocation(t *testing.T) {
	f := func(parents []uint8, dest uint8) bool {
		w, err := NewWorld(testLocations())
		if err != nil {
			return false
		}
		n := len(parents)
		if n > 50 {
			n = 50
		}
		// Object i may be contained in a lower-numbered object.
		for i := 0; i < n; i++ {
			if _, err := w.Enter(Tag(i+1), LevelItem, 0); err != nil {
				return false
			}
		}
		for i := 1; i < n; i++ {
			p := int(parents[i]) % i // in [0, i)
			if err := w.Contain(Tag(i+1), Tag(p+1)); err != nil {
				return false
			}
		}
		if n == 0 {
			return true
		}
		loc := LocationID(int(dest) % 4)
		if err := w.Move(1, loc); err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if w.TopLevelContainer(Tag(i+1)) == 1 && w.LocationOf(Tag(i+1)) != loc {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func mustEnter(t *testing.T, w *World, tag Tag, lvl Level, loc LocationID) {
	t.Helper()
	if _, err := w.Enter(tag, lvl, loc); err != nil {
		t.Fatalf("Enter(%d): %v", tag, err)
	}
}
