package query

import (
	"testing"

	"spire/internal/event"
	"spire/internal/model"
)

// benchStream builds a well-formed stream of nObjects moving through 8
// locations over many epochs.
func benchStream(nObjects, moves int) []event.Event {
	var out []event.Event
	loc := make([]model.LocationID, nObjects)
	since := make([]model.Epoch, nObjects)
	for i := 0; i < nObjects; i++ {
		out = append(out, event.NewStartLocation(model.Tag(i+1), 0, 1))
		since[i] = 1
	}
	t := model.Epoch(1)
	for m := 0; m < moves; m++ {
		t += 5
		i := m % nObjects
		g := model.Tag(i + 1)
		out = append(out,
			event.NewEndLocation(g, loc[i], since[i], t),
			event.NewStartLocation(g, (loc[i]+1)%8, t))
		loc[i] = (loc[i] + 1) % 8
		since[i] = t
	}
	return out
}

// churnStream builds a well-formed stream of nItems items packed in
// nItems/20 cases at 8 locations: every epoch, moves items change case
// and location, and one move in seven instead reports the item missing;
// a missing item returns on its next turn.
func churnStream(nItems, epochs, moves int) []event.Event {
	nCases := nItems / 20
	type state struct {
		loc     model.LocationID
		cont    model.Tag
		since   model.Epoch
		missing bool
	}
	items := make([]state, nItems)
	var out []event.Event
	for i := range items {
		g := model.Tag(nCases + 1 + i)
		items[i] = state{loc: model.LocationID(i % 8), cont: model.Tag(i%nCases + 1), since: 1}
		out = append(out,
			event.NewStartContainment(g, items[i].cont, 1),
			event.NewStartLocation(g, items[i].loc, 1))
	}
	k := 0
	for t := model.Epoch(2); t <= model.Epoch(epochs); t++ {
		for m := 0; m < moves; m, k = m+1, k+1 {
			i := k % nItems
			st, g := &items[i], model.Tag(nCases+1+i)
			switch {
			case st.missing:
				st.loc, st.cont = (st.loc+1)%8, st.cont%model.Tag(nCases)+1
				out = append(out,
					event.NewStartContainment(g, st.cont, t),
					event.NewStartLocation(g, st.loc, t))
				st.missing = false
			case k%7 == 0:
				out = append(out,
					event.NewEndContainment(g, st.cont, st.since, t),
					event.NewEndLocation(g, st.loc, st.since, t),
					event.NewMissing(g, st.loc, t))
				st.missing = true
			default:
				out = append(out,
					event.NewEndContainment(g, st.cont, st.since, t),
					event.NewEndLocation(g, st.loc, st.since, t))
				st.loc, st.cont = (st.loc+1)%8, st.cont%model.Tag(nCases)+1
				out = append(out,
					event.NewStartContainment(g, st.cont, t),
					event.NewStartLocation(g, st.loc, t))
			}
			st.since = t
		}
	}
	return out
}

// churnStore feeds a churnStream of 10 000 items over 400 epochs.
func churnStore(b *testing.B) (*Store, model.Epoch) {
	const epochs = 400
	s := NewStore()
	if err := s.Feed(churnStream(10000, epochs, 100)...); err != nil {
		b.Fatal(err)
	}
	return s, epochs
}

func BenchmarkStoreFeed(b *testing.B) {
	evs := benchStream(1000, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewStore()
		if err := s.Feed(evs...); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(evs)), "events")
}

func BenchmarkLocationAt(b *testing.B) {
	s := NewStore()
	if err := s.Feed(benchStream(1000, 20000)...); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.LocationAt(model.Tag(i%1000+1), model.Epoch(i%100000))
	}
}

func BenchmarkObjectsAt(b *testing.B) {
	s := NewStore()
	if err := s.Feed(benchStream(1000, 20000)...); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ObjectsAt(model.LocationID(i%8), model.Epoch(i%100000))
	}
}

// BenchmarkContentsAt lists a case's contents at the stream head, the
// serving read mix's container query.
func BenchmarkContentsAt(b *testing.B) {
	s, head := churnStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ContentsAt(model.Tag(i%500+1), head)
	}
}

// missingStore feeds n objects that each stay at one of 8 locations, then
// leave it and are reported missing, one epoch per 100 objects, so n
// spells are open at the stream head.
func missingStore(b *testing.B, n int) (*Store, model.Epoch) {
	s := NewStore()
	var evs []event.Event
	for i := 0; i < n; i++ {
		evs = append(evs, event.NewStartLocation(model.Tag(i+1), model.LocationID(i%8), 1))
	}
	t := model.Epoch(1)
	for i := 0; i < n; i++ {
		if i%100 == 0 {
			t++
		}
		g, loc := model.Tag(i+1), model.LocationID(i%8)
		evs = append(evs, event.NewEndLocation(g, loc, 1, t), event.NewMissing(g, loc, t))
	}
	if err := s.Feed(evs...); err != nil {
		b.Fatal(err)
	}
	return s, t
}

// BenchmarkMissingAt lists the missing set at the stream head: on the
// churn store (about 1 400 open spells) and with 12 000 open spells.
func BenchmarkMissingAt(b *testing.B) {
	for _, tc := range []struct {
		name  string
		build func(*testing.B) (*Store, model.Epoch)
	}{
		{"churn", churnStore},
		{"open=12000", func(b *testing.B) (*Store, model.Epoch) { return missingStore(b, 12000) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			s, head := tc.build(b)
			b.ReportMetric(float64(len(s.MissingAt(head))), "missing")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.MissingAt(head)
			}
		})
	}
}
