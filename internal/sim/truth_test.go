package sim

import (
	"maps"
	"testing"

	"spire/internal/model"
)

// TestTrueResultMatchesWorld holds TrueResult, which walks the world's
// objects unsorted, to a lookup of every tag Objects lists, at every
// epoch of a simulated run.
func TestTrueResultMatchesWorld(t *testing.T) {
	s, err := New(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for !s.Done() {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
		w := s.World()
		locs, parents := map[model.Tag]model.LocationID{}, map[model.Tag]model.Tag{}
		for _, g := range w.Objects() {
			locs[g], parents[g] = w.LocationOf(g), w.ParentOf(g)
		}
		res := s.TrueResult()
		if !maps.Equal(res.Locations, locs) || !maps.Equal(res.Parents, parents) || len(res.Observed) != 0 || res.Now != s.Now() {
			t.Fatalf("epoch %d: TrueResult differs from the world's objects", s.Now())
		}
		seen += len(locs)
	}
	if seen == 0 {
		t.Fatal("the simulated run held no objects")
	}
}
