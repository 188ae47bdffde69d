package query

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"spire/internal/event"
	"spire/internal/model"
)

// The scans below are the Store's read queries as plain walks over every
// object's history. They are the second implementation the indexed
// queries are held to: FuzzStoreIndexMatchesScan requires equal answers
// at every time.

// scanContentsAt walks every object's containment list.
func scanContentsAt(s *Store, container model.Tag, t model.Epoch) []model.Tag {
	var out []model.Tag
	for g, conts := range s.conts {
		i := sort.Search(len(conts), func(i int) bool { return conts[i].Vs > t })
		if i == 0 {
			continue
		}
		if c := conts[i-1]; c.Container == container && covers(c.Vs, c.Ve, t) {
			out = append(out, g)
		}
	}
	slices.Sort(out)
	return out
}

// scanTransitiveContentsAt walks scanContentsAt down the hierarchy.
func scanTransitiveContentsAt(s *Store, container model.Tag, t model.Epoch) []model.Tag {
	var out []model.Tag
	var walk func(model.Tag)
	walk = func(c model.Tag) {
		for _, g := range scanContentsAt(s, c, t) {
			out = append(out, g)
			walk(g)
		}
	}
	walk(container)
	slices.Sort(out)
	return out
}

// scanObjectsAt walks every object's stays.
func scanObjectsAt(s *Store, loc model.LocationID, t model.Epoch) []model.Tag {
	var out []model.Tag
	for g, stays := range s.stays {
		if st, ok := staysAt(stays, t); ok && st.Location == loc {
			out = append(out, g)
		}
	}
	slices.Sort(out)
	return out
}

// scanMissingAt walks every object ever reported missing: it is missing
// at t when it has a report at or before t and its latest stay started by
// t neither covers t nor started after that report.
func scanMissingAt(s *Store, t model.Epoch) []model.Tag {
	var out []model.Tag
	for g, reports := range s.missing {
		last := model.EpochNone
		for _, r := range reports {
			if r.At <= t && r.At > last {
				last = r.At
			}
		}
		if last == model.EpochNone {
			continue
		}
		stays := s.stays[g]
		i := sort.Search(len(stays), func(i int) bool { return stays[i].Vs > t })
		if i > 0 {
			if st := stays[i-1]; covers(st.Vs, st.Ve, t) || st.Vs > last {
				continue
			}
		}
		out = append(out, g)
	}
	slices.Sort(out)
	return out
}

const (
	fuzzTags = 6 // tags 1..6; a container's tag exceeds its content's
	fuzzLocs = 3
)

// decodeStream turns fuzz bytes into a well-formed level-1 stream, two
// bytes per step: the first picks the step and its variant, the second
// the object. Steps advance time (by zero too, repeating an epoch), open
// or close a stay, report a Missing outside any stay, open, close or
// re-parent a containment, or end a stay or containment and re-enter the
// same location or container in the same epoch. Every event is emitted at
// the current time, so stream time never decreases. It also returns the
// last epoch.
func decodeStream(data []byte) ([]event.Event, model.Epoch) {
	type open struct {
		on   bool
		loc  model.LocationID
		cont model.Tag
		vs   model.Epoch
	}
	var stays, conts [fuzzTags + 1]open
	var evs []event.Event
	t := model.Epoch(1)
	for ; len(data) >= 2; data = data[2:] {
		op, g := data[0], model.Tag(data[1]%fuzzTags+1)
		v := int(op / 5)
		st, ct := &stays[g], &conts[g]
		switch op % 5 {
		case 0:
			t += model.Epoch(v % 3)
		case 1:
			if st.on {
				evs = append(evs, event.NewEndLocation(g, st.loc, st.vs, t))
				st.on = false
			} else {
				*st = open{on: true, loc: model.LocationID(v % fuzzLocs), vs: t}
				evs = append(evs, event.NewStartLocation(g, st.loc, t))
			}
		case 2:
			if !st.on {
				evs = append(evs, event.NewMissing(g, model.LocationID(v%fuzzLocs), t))
			}
		case 3:
			if ct.on {
				evs = append(evs, event.NewEndContainment(g, ct.cont, ct.vs, t))
				ct.on = false
			}
			if g < fuzzTags && (!ct.on || v%2 == 1) {
				c := g + 1 + model.Tag(v)%(fuzzTags-g)
				*ct = open{on: true, cont: c, vs: t}
				evs = append(evs, event.NewStartContainment(g, c, t))
			}
		case 4:
			if v%2 == 0 && st.on {
				evs = append(evs,
					event.NewEndLocation(g, st.loc, st.vs, t),
					event.NewStartLocation(g, st.loc, t))
				st.vs = t
			} else if ct.on {
				evs = append(evs,
					event.NewEndContainment(g, ct.cont, ct.vs, t),
					event.NewStartContainment(g, ct.cont, t))
				ct.vs = t
			}
		}
	}
	return evs, t
}

// checkAgainstScans compares every read query with its scan at every t
// from 0 to last+2, and Objects and Known with the tags fed so far.
func checkAgainstScans(t *testing.T, s *Store, mentioned map[model.Tag]bool, last model.Epoch) {
	t.Helper()
	for tt := model.Epoch(0); tt <= last+2; tt++ {
		if got, want := s.MissingAt(tt), scanMissingAt(s, tt); !slices.Equal(got, want) {
			t.Fatalf("MissingAt(%d) = %v, scan %v", tt, got, want)
		}
		for c := model.Tag(1); c <= fuzzTags; c++ {
			if got, want := s.ContentsAt(c, tt), scanContentsAt(s, c, tt); !slices.Equal(got, want) {
				t.Fatalf("ContentsAt(%d, %d) = %v, scan %v", c, tt, got, want)
			}
			if got, want := s.TransitiveContentsAt(c, tt), scanTransitiveContentsAt(s, c, tt); !slices.Equal(got, want) {
				t.Fatalf("TransitiveContentsAt(%d, %d) = %v, scan %v", c, tt, got, want)
			}
		}
		for loc := model.LocationID(0); loc < fuzzLocs; loc++ {
			if got, want := s.ObjectsAt(loc, tt), scanObjectsAt(s, loc, tt); !slices.Equal(got, want) {
				t.Fatalf("ObjectsAt(%d, %d) = %v, scan %v", loc, tt, got, want)
			}
		}
	}
	var want []model.Tag
	for g := model.Tag(1); g <= fuzzTags+1; g++ {
		if s.Known(g) != mentioned[g] {
			t.Fatalf("Known(%d) = %v, stream mentioned it: %v", g, s.Known(g), mentioned[g])
		}
		if mentioned[g] {
			want = append(want, g)
		}
	}
	if got := s.Objects(); !slices.Equal(got, want) {
		t.Fatalf("Objects() = %v, stream mentioned %v", got, want)
	}
}

// FuzzStoreIndexMatchesScan feeds a decoded stream into a Store and, at
// each epoch boundary and at the end, holds ContentsAt,
// TransitiveContentsAt, MissingAt, ObjectsAt, Objects and Known to the
// scans above at every time up to two epochs past the stream head.
func FuzzStoreIndexMatchesScan(f *testing.F) {
	f.Add([]byte{})
	// Missing twice, then re-seen: the spell starts at the first report.
	f.Add([]byte{2, 1, 5, 0, 2, 1, 5, 0, 1, 1, 5, 0, 1, 1, 5, 0})
	// A Missing and a stay opening in the same epoch, then the stay ends.
	f.Add([]byte{2, 1, 1, 1, 5, 0, 1, 1, 5, 0})
	// Re-entering the same container and location in the same epoch.
	f.Add([]byte{3, 0, 3, 1, 1, 0, 5, 0, 4, 0, 9, 0, 5, 0, 13, 1, 5, 0})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 32; i++ {
		b := make([]byte, 2*(8+rng.Intn(56)))
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		evs, last := decodeStream(data)
		s := NewStore()
		mentioned := map[model.Tag]bool{}
		for i, e := range evs {
			if err := s.Feed(e); err != nil {
				t.Fatalf("event %d %v: %v", i, e, err)
			}
			mentioned[e.Object] = true
			if e.Kind == event.StartContainment {
				mentioned[e.Container] = true
			}
			if i+1 < len(evs) && evs[i+1].Emitted() > e.Emitted() {
				checkAgainstScans(t, s, mentioned, e.Emitted())
			}
		}
		checkAgainstScans(t, s, mentioned, last)
	})
}

// TestMissingAtManyOpenSpells holds MissingAt to its scan on the churn
// stream of the benchmarks at every epoch: 3 000 items, hundreds of
// spells open at once, each opened and closed at its own position in the
// tag-ordered run.
func TestMissingAtManyOpenSpells(t *testing.T) {
	const epochs = 60
	s := NewStore()
	if err := s.Feed(churnStream(3000, epochs, 200)...); err != nil {
		t.Fatal(err)
	}
	if len(s.open) < 300 {
		t.Fatalf("%d open spells at the head, want hundreds", len(s.open))
	}
	for tt := model.Epoch(0); tt <= epochs+1; tt++ {
		if got, want := s.MissingAt(tt), scanMissingAt(s, tt); !slices.Equal(got, want) {
			t.Fatalf("MissingAt(%d): %d objects, scan %d", tt, len(got), len(want))
		}
	}
}
