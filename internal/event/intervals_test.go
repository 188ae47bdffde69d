package event

import (
	"slices"
	"testing"

	"spire/internal/model"
)

func TestIntervalsPairs(t *testing.T) {
	iv := NewIntervals[int]()
	if iv.Get(7) != nil {
		t.Fatal("untracked object has an entry")
	}
	o := iv.Track(7, 42)
	if iv.Track(7, 0) != o || o.Payload != 42 || o.Tag() != 7 || iv.Len() != 1 {
		t.Fatalf("Track did not return the one entry with its first payload: %+v", o)
	}
	if _, _, open := o.Location(); open {
		t.Fatal("new entry has an open location pair")
	}
	o.OpenLocation(3, 10)
	if loc, vs, open := o.Location(); !open || loc != 3 || vs != 10 {
		t.Fatalf("Location = %v, %d, %v", loc, vs, open)
	}
	o.CloseLocation()
	if _, _, open := o.Location(); open {
		t.Fatal("CloseLocation left the pair open")
	}
	if err := iv.Contain(o, 2, 11); err != nil {
		t.Fatal(err)
	}
	if c, vs, open := o.Container(); !open || c != 2 || vs != 11 {
		t.Fatalf("Container = %d, %d, %v", c, vs, open)
	}
	iv.Release(o)
	if _, _, open := o.Container(); open || len(iv.Contents(2)) != 0 {
		t.Fatal("Release left the containment open")
	}
}

func TestIntervalsContents(t *testing.T) {
	iv := NewIntervals[struct{}]()
	for _, g := range []model.Tag{9, 3, 6} {
		if err := iv.Contain(iv.Track(g, struct{}{}), 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := iv.Contents(1); !slices.Equal(got, []model.Tag{3, 6, 9}) {
		t.Fatalf("Contents(1) = %v, want tag order", got)
	}
	// Re-containing moves the object between contents lists.
	if err := iv.Contain(iv.Get(6), 2, 5); err != nil {
		t.Fatal(err)
	}
	if got := iv.Contents(1); !slices.Equal(got, []model.Tag{3, 9}) {
		t.Fatalf("Contents(1) after move = %v", got)
	}
	if got := iv.Contents(2); !slices.Equal(got, []model.Tag{6}) {
		t.Fatalf("Contents(2) after move = %v", got)
	}
	iv.Forget(3)
	if iv.Get(3) != nil || !slices.Equal(iv.Contents(1), []model.Tag{9}) {
		t.Fatalf("Forget(3) left %v in container 1", iv.Contents(1))
	}
}

func TestIntervalsRejectsCycles(t *testing.T) {
	iv := NewIntervals[struct{}]()
	track := func(g model.Tag) *Entry[struct{}] { return iv.Track(g, struct{}{}) }
	if err := iv.Contain(track(1), 1, 1); err == nil {
		t.Fatal("self-containment accepted")
	}
	if err := iv.Contain(track(1), 2, 1); err != nil {
		t.Fatal(err)
	}
	if err := iv.Contain(track(2), 3, 1); err != nil {
		t.Fatal(err)
	}
	if err := iv.Contain(track(2), 1, 2); err == nil {
		t.Fatal("direct cycle 2 in 1 in 2 accepted")
	}
	if err := iv.Contain(track(3), 1, 2); err == nil {
		t.Fatal("transitive cycle 3 in 1 in 2 in 3 accepted")
	}
	// A rejected containment changes nothing.
	if c, _, _ := iv.Get(3).Container(); c != model.NoTag {
		t.Fatalf("rejected containment left 3 in %d", c)
	}
	if c, _, _ := iv.Get(2).Container(); c != 3 {
		t.Fatalf("rejected containment moved 2 to %d", c)
	}
}

func TestIntervalsEachOpen(t *testing.T) {
	iv := NewIntervals[struct{}]()
	iv.Track(5, struct{}{}).OpenLocation(0, 1)
	iv.Track(4, struct{}{}) // nothing open
	if err := iv.Contain(iv.Track(2, struct{}{}), 5, 1); err != nil {
		t.Fatal(err)
	}
	iv.Track(8, struct{}{}).OpenLocation(1, 1)
	var got []model.Tag
	iv.EachOpen(func(o *Entry[struct{}]) {
		got = append(got, o.Tag())
		iv.Release(o)
		o.CloseLocation()
	})
	if !slices.Equal(got, []model.Tag{2, 5, 8}) {
		t.Fatalf("EachOpen visited %v, want [2 5 8]", got)
	}
	iv.EachOpen(func(o *Entry[struct{}]) { t.Errorf("%d still open", o.Tag()) })
}
