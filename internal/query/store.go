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
	"cmp"
	"fmt"
	"slices"
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
//
// An object reported Missing stays missing until a StartLocation whose Vs
// lies after the report's epoch. A stay that opens in the epoch of the
// object's last Missing is no re-sighting: the object is not missing while
// that stay is open, and is missing again from its Ve until the next
// StartLocation.
type Store struct {
	stays    map[model.Tag][]Stay
	conts    map[model.Tag][]Containment
	missing  map[model.Tag][]MissingReport
	byLoc    map[model.LocationID][]occupancy
	byCont   map[model.Tag][]model.Tag // objects that ever entered each container
	open     []spell                   // open missing spells, in tag order; ve unused
	spells   []spell                   // closed missing spells, in ve order
	events   int64
	lastTime model.Epoch
}

// spell is a span [vs, ve) during which MissingAt lists object.
type spell struct {
	object model.Tag
	vs, ve model.Epoch
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
		byCont:   make(map[model.Tag][]model.Tag),
		lastTime: model.EpochNone,
	}
}

// Feed indexes events, which must arrive in stream order (the order the
// compressor emitted them). Malformed input — an end without a start, a
// mismatched payload, time running backwards — is rejected, and a rejected
// event changes nothing, stream time included.
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

	switch e.Kind {
	case event.StartLocation:
		stays := s.stays[e.Object]
		if n := len(stays); n > 0 && stays[n-1].Ve == model.InfiniteEpoch {
			return fmt.Errorf("query: %v while a location interval is open", e)
		}
		s.stays[e.Object] = append(stays, Stay{Location: e.Location, Vs: e.Vs, Ve: model.InfiniteEpoch})
		s.byLoc[e.Location] = append(s.byLoc[e.Location], occupancy{object: e.Object, vs: e.Vs})
		if i, ok := s.openSpell(e.Object); ok {
			s.spells = append(s.spells, spell{object: e.Object, vs: s.open[i].vs, ve: e.Vs})
			s.open = slices.Delete(s.open, i, i+1)
		}
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
		// A stay opened in the last Missing's epoch is no re-sighting. Its
		// StartLocation closed any open spell, so none is open here.
		if r := s.missing[e.Object]; len(r) > 0 && r[len(r)-1].At == e.Vs {
			i, _ := s.openSpell(e.Object)
			s.open = slices.Insert(s.open, i, spell{object: e.Object, vs: e.Ve})
		}
	case event.StartContainment:
		conts := s.conts[e.Object]
		if n := len(conts); n > 0 && conts[n-1].Ve == model.InfiniteEpoch {
			return fmt.Errorf("query: %v while a containment interval is open", e)
		}
		s.conts[e.Object] = append(conts, Containment{Container: e.Container, Vs: e.Vs, Ve: model.InfiniteEpoch})
		if in := s.byCont[e.Container]; len(in) == 0 || in[len(in)-1] != e.Object {
			s.byCont[e.Container] = append(in, e.Object)
		}
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
		if i, ok := s.openSpell(e.Object); !ok {
			s.open = slices.Insert(s.open, i, spell{object: e.Object, vs: e.Vs})
		}
	}
	s.lastTime = emitted
	s.events++
	return nil
}

// openSpell binary-searches the open spells for obj's, returning its
// position or the one it would take.
func (s *Store) openSpell(obj model.Tag) (int, bool) {
	return slices.BinarySearchFunc(s.open, obj, func(sp spell, g model.Tag) int { return cmp.Compare(sp.object, g) })
}

// Events returns the number of events indexed.
func (s *Store) Events() int64 { return s.events }

// Known reports whether the stream has mentioned the object at all.
func (s *Store) Known(obj model.Tag) bool {
	return len(s.stays[obj]) > 0 || len(s.conts[obj]) > 0 || len(s.missing[obj]) > 0 || len(s.byCont[obj]) > 0
}

// Objects returns every object the stream has mentioned, in tag order.
func (s *Store) Objects() []model.Tag {
	out := appendKeys(appendKeys(make([]model.Tag, 0, len(s.stays)), s.stays), s.conts)
	out = appendKeys(appendKeys(out, s.missing), s.byCont)
	slices.Sort(out)
	return slices.Compact(out)
}

func appendKeys[V any](out []model.Tag, m map[model.Tag]V) []model.Tag {
	for g := range m {
		out = append(out, g)
	}
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
	for _, g := range s.byCont[container] {
		if c, ok := s.ContainerAt(g, t); ok && c == container {
			out = append(out, g)
		}
	}
	slices.Sort(out)
	return slices.Compact(out) // an object that re-entered is listed twice
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
	occs := s.byLoc[loc] // in vs order, as stream time never decreases
	occs = occs[:sort.Search(len(occs), func(i int) bool { return occs[i].vs > t })]
	for _, occ := range occs {
		// Only the occupancy that opened the covering stay counts.
		if st, ok := staysAt(s.stays[occ.object], t); ok && st.Location == loc && st.Vs == occ.vs {
			out = append(out, occ.object)
		}
	}
	slices.Sort(out)
	return slices.Compact(out) // equal-Vs stays, the first one empty
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
// time t, in tag order, from the spells: each runs from the first Missing
// after an object's latest StartLocation to the Vs of its next one. No
// stay covers a spell: Feed rejects a Missing inside an open stay, and a
// Missing is emitted at or after the prior stay's Ve. The open spells are
// kept in tag order; closed spells end in order, so a query at the stream
// head walks none of them, and the few an earlier t finds are merged in.
func (s *Store) MissingAt(t model.Epoch) []model.Tag {
	var closed []model.Tag
	i := sort.Search(len(s.spells), func(i int) bool { return s.spells[i].ve > t })
	for _, sp := range s.spells[i:] {
		if sp.vs <= t {
			closed = append(closed, sp.object)
		}
	}
	if len(closed) > 1 {
		slices.Sort(closed)
	}
	var out []model.Tag
	if n := len(s.open) + len(closed); n > 0 {
		out = make([]model.Tag, 0, n)
	}
	j := 0
	for _, sp := range s.open {
		if sp.vs <= t {
			for ; j < len(closed) && closed[j] < sp.object; j++ {
				out = append(out, closed[j])
			}
			out = append(out, sp.object)
		}
	}
	if out = append(out, closed[j:]...); len(out) == 0 {
		return nil
	}
	return out
}
