// Package query implements an event-processing layer over SPIRE's
// compressed output streams.
//
// The paper positions range-compressed output as "directly queriable
// using recently developed event processors" and plans to feed it to
// higher-level query processing; RFID warehousing work (Gonzalez et al.,
// Lee & Chung) builds tracking and path-oriented queries over exactly
// this kind of interval data. This package provides that layer: a Store
// indexes a level-1 stream incrementally (feed level-2 streams through
// compress.Decompressor first) and answers
//
//   - point queries: where was object o at time t? what contained it?
//     what did container c hold? which objects were at location l?
//   - tracking queries: an object's full stay history, its path through
//     the warehouse, dwell times, co-location with another object;
//   - anomaly queries: missing reports and the set of objects missing at
//     a time t.
//
// All interval queries use the half-open validity convention of the
// stream: a stay [Vs, Ve) covers t with Vs ≤ t < Ve, and an interval
// still open at the end of the fed stream covers every t ≥ Vs.
package query

import (
	"fmt"
	"sort"

	"spire/internal/event"
	"spire/internal/model"
)

// Stay is one location interval of an object.
type Stay struct {
	Location model.LocationID
	Vs       model.Epoch
	Ve       model.Epoch // model.InfiniteEpoch while open
}

// Containment is one containment interval of an object.
type Containment struct {
	Container model.Tag
	Vs        model.Epoch
	Ve        model.Epoch // model.InfiniteEpoch while open
}

// MissingReport is one Missing message.
type MissingReport struct {
	From model.LocationID
	At   model.Epoch
}

// covers reports whether the half-open interval [vs, ve) contains t.
func covers(vs, ve, t model.Epoch) bool { return vs <= t && t < ve }

// Store indexes an event stream. Feed events in stream order; queries may
// interleave with feeding. The zero value is not usable; call NewStore.
type Store struct {
	stays    map[model.Tag][]Stay
	conts    map[model.Tag][]Containment
	missing  map[model.Tag][]MissingReport
	byLoc    map[model.LocationID][]occupancy
	objects  map[model.Tag]struct{}
	events   int64
	lastTime model.Epoch
}

// occupancy is a stay projected onto its location's index. The stays
// slice owns the authoritative Ve; occupancy carries the object and start
// so lookups re-check the object's stay.
type occupancy struct {
	object model.Tag
	vs     model.Epoch
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		stays:    make(map[model.Tag][]Stay),
		conts:    make(map[model.Tag][]Containment),
		missing:  make(map[model.Tag][]MissingReport),
		byLoc:    make(map[model.LocationID][]occupancy),
		objects:  make(map[model.Tag]struct{}),
		lastTime: model.EpochNone,
	}
}

// Feed indexes events, which must arrive in stream order (the order the
// compressor emitted them). Malformed input — an end without a start, a
// mismatched payload, time running backwards — is rejected.
func (s *Store) Feed(events ...event.Event) error {
	for _, e := range events {
		if err := s.feed(e); err != nil {
			return err
		}
	}
	return nil
}

func (s *Store) feed(e event.Event) error {
	if err := e.Validate(); err != nil {
		return err
	}
	emitted := e.Emitted()
	if emitted < s.lastTime {
		return fmt.Errorf("query: event %v emitted at %d before stream time %d", e, emitted, s.lastTime)
	}
	s.lastTime = emitted
	s.objects[e.Object] = struct{}{}

	switch e.Kind {
	case event.StartLocation:
		stays := s.stays[e.Object]
		if n := len(stays); n > 0 && stays[n-1].Ve == model.InfiniteEpoch {
			return fmt.Errorf("query: %v while a location interval is open", e)
		}
		s.stays[e.Object] = append(stays, Stay{Location: e.Location, Vs: e.Vs, Ve: model.InfiniteEpoch})
		s.byLoc[e.Location] = append(s.byLoc[e.Location], occupancy{object: e.Object, vs: e.Vs})
	case event.EndLocation:
		stays := s.stays[e.Object]
		n := len(stays)
		if n == 0 || stays[n-1].Ve != model.InfiniteEpoch {
			return fmt.Errorf("query: %v without an open interval", e)
		}
		if stays[n-1].Location != e.Location || stays[n-1].Vs != e.Vs {
			return fmt.Errorf("query: %v does not match open interval %+v", e, stays[n-1])
		}
		stays[n-1].Ve = e.Ve
	case event.StartContainment:
		conts := s.conts[e.Object]
		if n := len(conts); n > 0 && conts[n-1].Ve == model.InfiniteEpoch {
			return fmt.Errorf("query: %v while a containment interval is open", e)
		}
		s.conts[e.Object] = append(conts, Containment{Container: e.Container, Vs: e.Vs, Ve: model.InfiniteEpoch})
		s.objects[e.Container] = struct{}{}
	case event.EndContainment:
		conts := s.conts[e.Object]
		n := len(conts)
		if n == 0 || conts[n-1].Ve != model.InfiniteEpoch {
			return fmt.Errorf("query: %v without an open interval", e)
		}
		if conts[n-1].Container != e.Container || conts[n-1].Vs != e.Vs {
			return fmt.Errorf("query: %v does not match open interval %+v", e, conts[n-1])
		}
		conts[n-1].Ve = e.Ve
	case event.Missing:
		if stays := s.stays[e.Object]; len(stays) > 0 && stays[len(stays)-1].Ve == model.InfiniteEpoch {
			return fmt.Errorf("query: %v inside an open location interval", e)
		}
		s.missing[e.Object] = append(s.missing[e.Object], MissingReport{From: e.Location, At: e.Vs})
	}
	s.events++
	return nil
}

// Events returns the number of events indexed.
func (s *Store) Events() int64 { return s.events }

// Known reports whether the stream has mentioned the object at all.
func (s *Store) Known(obj model.Tag) bool {
	_, ok := s.objects[obj]
	return ok
}

// Objects returns every object the stream has mentioned, in tag order.
func (s *Store) Objects() []model.Tag {
	out := make([]model.Tag, 0, len(s.objects))
	for g := range s.objects {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// staysAt binary-searches an object's stays for the interval covering t.
func staysAt(stays []Stay, t model.Epoch) (Stay, bool) {
	i := sort.Search(len(stays), func(i int) bool { return stays[i].Vs > t })
	if i == 0 {
		return Stay{}, false
	}
	st := stays[i-1]
	if covers(st.Vs, st.Ve, t) {
		return st, true
	}
	return Stay{}, false
}

// LocationAt reports where obj was at time t according to the stream.
func (s *Store) LocationAt(obj model.Tag, t model.Epoch) (model.LocationID, bool) {
	st, ok := staysAt(s.stays[obj], t)
	if !ok {
		return model.LocationUnknown, false
	}
	return st.Location, true
}

// ContainerAt reports obj's direct container at time t.
func (s *Store) ContainerAt(obj model.Tag, t model.Epoch) (model.Tag, bool) {
	conts := s.conts[obj]
	i := sort.Search(len(conts), func(i int) bool { return conts[i].Vs > t })
	if i == 0 {
		return model.NoTag, false
	}
	c := conts[i-1]
	if covers(c.Vs, c.Ve, t) {
		return c.Container, true
	}
	return model.NoTag, false
}

// TopContainerAt follows containment upward at time t; an uncontained
// object is its own top container.
func (s *Store) TopContainerAt(obj model.Tag, t model.Epoch) model.Tag {
	cur := obj
	for hops := 0; hops < 64; hops++ { // defensive bound against cycles
		p, ok := s.ContainerAt(cur, t)
		if !ok {
			return cur
		}
		cur = p
	}
	return cur
}

// ContentsAt lists the objects directly contained in container at t, in
// tag order.
func (s *Store) ContentsAt(container model.Tag, t model.Epoch) []model.Tag {
	var out []model.Tag
	// Scan the containment intervals naming this container. For the open
	// set the inverted index is exact; historical queries re-check the
	// intervals of every object that ever named it.
	for g, conts := range s.conts {
		i := sort.Search(len(conts), func(i int) bool { return conts[i].Vs > t })
		if i == 0 {
			continue
		}
		c := conts[i-1]
		if c.Container == container && covers(c.Vs, c.Ve, t) {
			out = append(out, g)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TransitiveContentsAt lists everything inside container at t, at any
// depth, in tag order.
func (s *Store) TransitiveContentsAt(container model.Tag, t model.Epoch) []model.Tag {
	var out []model.Tag
	var walk func(model.Tag)
	walk = func(c model.Tag) {
		for _, g := range s.ContentsAt(c, t) {
			out = append(out, g)
			walk(g)
		}
	}
	walk(container)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ObjectsAt lists the objects at location loc at time t, in tag order.
func (s *Store) ObjectsAt(loc model.LocationID, t model.Epoch) []model.Tag {
	var out []model.Tag
	seen := make(map[model.Tag]bool)
	for _, occ := range s.byLoc[loc] {
		if occ.vs > t || seen[occ.object] {
			continue
		}
		if st, ok := staysAt(s.stays[occ.object], t); ok && st.Location == loc {
			out = append(out, occ.object)
			seen[occ.object] = true
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// History returns obj's full stay history in time order. The returned
// slice is a copy.
func (s *Store) History(obj model.Tag) []Stay {
	return append([]Stay(nil), s.stays[obj]...)
}

// Containments returns obj's containment history in time order.
func (s *Store) Containments(obj model.Tag) []Containment {
	return append([]Containment(nil), s.conts[obj]...)
}

// Path returns the sequence of locations obj visited, collapsing
// consecutive repeats — the path-query primitive of RFID warehousing.
func (s *Store) Path(obj model.Tag) []model.LocationID {
	var out []model.LocationID
	for _, st := range s.stays[obj] {
		if n := len(out); n == 0 || out[n-1] != st.Location {
			out = append(out, st.Location)
		}
	}
	return out
}

// DwellTime sums the epochs obj spent at loc; an open interval counts up
// to asOf.
func (s *Store) DwellTime(obj model.Tag, loc model.LocationID, asOf model.Epoch) model.Epoch {
	var total model.Epoch
	for _, st := range s.stays[obj] {
		if st.Location != loc {
			continue
		}
		ve := st.Ve
		if ve > asOf {
			ve = asOf
		}
		if ve > st.Vs {
			total += ve - st.Vs
		}
	}
	return total
}

// CoLocated reports whether a and b were at the same known location at t.
func (s *Store) CoLocated(a, b model.Tag, t model.Epoch) bool {
	la, ok := s.LocationAt(a, t)
	if !ok {
		return false
	}
	lb, ok := s.LocationAt(b, t)
	return ok && la == lb
}

// Interval is a half-open time span.
type Interval struct {
	Vs, Ve model.Epoch
}

// TogetherIntervals returns the time spans during which a and b were
// reported at the same known location — the co-location audit primitive
// (e.g. "when were these two pharma lots ever stored together?").
// Open-ended stays yield an open-ended (Ve = model.InfiniteEpoch) span.
func (s *Store) TogetherIntervals(a, b model.Tag) []Interval {
	var out []Interval
	sa, sb := s.stays[a], s.stays[b]
	i, j := 0, 0
	for i < len(sa) && j < len(sb) {
		x, y := sa[i], sb[j]
		lo := x.Vs
		if y.Vs > lo {
			lo = y.Vs
		}
		hi := x.Ve
		if y.Ve < hi {
			hi = y.Ve
		}
		if lo < hi && x.Location == y.Location {
			// Merge adjacent spans at the same boundary.
			if n := len(out); n > 0 && out[n-1].Ve == lo {
				out[n-1].Ve = hi
			} else {
				out = append(out, Interval{Vs: lo, Ve: hi})
			}
		}
		if x.Ve <= y.Ve {
			i++
		} else {
			j++
		}
	}
	return out
}

// MissingReports returns obj's Missing messages in time order.
func (s *Store) MissingReports(obj model.Tag) []MissingReport {
	return append([]MissingReport(nil), s.missing[obj]...)
}

// MissingAt lists the objects reported missing and not yet re-seen at
// time t, in tag order.
func (s *Store) MissingAt(t model.Epoch) []model.Tag {
	var out []model.Tag
	for g, reports := range s.missing {
		// Last report at or before t.
		var last model.Epoch = model.EpochNone
		for _, r := range reports {
			if r.At <= t && r.At > last {
				last = r.At
			}
		}
		if last == model.EpochNone {
			continue
		}
		// A stay covering t means the object is located. A stay *started*
		// after the report means the object was re-seen — if that stay
		// has since ended without a fresh Missing, the object moved or
		// exited properly and is not missing at t.
		stays := s.stays[g]
		i := sort.Search(len(stays), func(i int) bool { return stays[i].Vs > t })
		if i > 0 {
			st := stays[i-1]
			if covers(st.Vs, st.Ve, t) || st.Vs > last {
				continue
			}
		}
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
