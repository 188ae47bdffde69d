package model

import (
	"fmt"
	"slices"
)

// World is the ground-truth state of the physical world at the current
// epoch: which objects reside where and which object contains which
// (Section II of the paper). The simulator mutates a World as objects move;
// the metrics package compares inference output against it.
//
// World is not safe for concurrent mutation.
type World struct {
	now     Epoch
	objects map[Tag]*ObjectState
	// byLoc indexes present objects by their current location (including
	// the special LocationUnknown), so At is proportional to the occupancy
	// of one location rather than the whole population. Maintained by the
	// three mutation points that change an object's location: Enter,
	// Depart, and moveSubtree.
	byLoc map[LocationID]map[Tag]struct{}
}

// ObjectState is the ground truth for one object.
type ObjectState struct {
	Tag      Tag
	Level    Level
	Location LocationID // LocationUnknown when stolen/in transit
	// Parent is the containing object, or NoTag when the object is not
	// contained (a top-level container, or a loose item).
	Parent Tag
	// Children are the directly contained objects.
	Children map[Tag]struct{}
	// Entered and Departed bound the object's presence in the world.
	Entered  Epoch
	Departed Epoch // EpochNone while present
}

// NewWorld creates an empty world with the given pre-defined locations.
// Location IDs must be dense, starting at 0, and match their slice index.
func NewWorld(locations []Location) (*World, error) {
	for i, l := range locations {
		if l.ID != LocationID(i) {
			return nil, fmt.Errorf("model: location %q has ID %v, want L%d", l.Name, l.ID, i)
		}
	}
	return &World{
		objects: make(map[Tag]*ObjectState),
		byLoc:   make(map[LocationID]map[Tag]struct{}),
	}, nil
}

func (w *World) indexAdd(tag Tag, loc LocationID) {
	m := w.byLoc[loc]
	if m == nil {
		m = make(map[Tag]struct{})
		w.byLoc[loc] = m
	}
	m[tag] = struct{}{}
}

func (w *World) indexRemove(tag Tag, loc LocationID) {
	if m := w.byLoc[loc]; m != nil {
		delete(m, tag)
	}
}

// Now returns the world's current epoch.
func (w *World) Now() Epoch { return w.now }

// SetNow advances the world clock. Time never moves backwards.
func (w *World) SetNow(t Epoch) {
	if t > w.now {
		w.now = t
	}
}

// Enter adds a new object to the world at the given location.
func (w *World) Enter(tag Tag, lvl Level, loc LocationID) (*ObjectState, error) {
	if tag == NoTag {
		return nil, fmt.Errorf("model: cannot enter the zero tag")
	}
	if _, ok := w.objects[tag]; ok {
		return nil, fmt.Errorf("model: tag %d already present", tag)
	}
	st := &ObjectState{
		Tag:      tag,
		Level:    lvl,
		Location: loc,
		Parent:   NoTag,
		Children: make(map[Tag]struct{}),
		Entered:  w.now,
		Departed: EpochNone,
	}
	w.objects[tag] = st
	w.indexAdd(tag, loc)
	return st, nil
}

// Depart removes an object (and not its children — callers must uncontain
// or depart children explicitly) from the world through a proper channel.
func (w *World) Depart(tag Tag) error {
	st, ok := w.objects[tag]
	if !ok {
		return fmt.Errorf("model: depart: tag %d not present", tag)
	}
	if len(st.Children) > 0 {
		return fmt.Errorf("model: depart: tag %d still contains %d objects", tag, len(st.Children))
	}
	if st.Parent != NoTag {
		w.Uncontain(tag)
	}
	st.Departed = w.now
	delete(w.objects, tag)
	w.indexRemove(tag, st.Location)
	return nil
}

// Steal marks the object as improperly removed: it stays in the object
// table (applications still ask about it) but its true location becomes
// "unknown". Containment with its parent, if any, is severed, matching the
// simulator's theft events.
func (w *World) Steal(tag Tag) error {
	st, ok := w.objects[tag]
	if !ok {
		return fmt.Errorf("model: steal: tag %d not present", tag)
	}
	if st.Parent != NoTag {
		w.Uncontain(tag)
	}
	w.moveSubtree(st, LocationUnknown)
	return nil
}

// Lookup returns the ground-truth state of a tag, or nil if absent.
func (w *World) Lookup(tag Tag) *ObjectState { return w.objects[tag] }

// ParentOf returns the ground-truth direct container of tag (NoTag if
// none or if the tag is absent).
func (w *World) ParentOf(tag Tag) Tag {
	if st, ok := w.objects[tag]; ok {
		return st.Parent
	}
	return NoTag
}

// LocationOf returns the ground-truth location of tag (LocationUnknown if
// the tag is stolen; LocationNone if the tag is absent from the world).
func (w *World) LocationOf(tag Tag) LocationID {
	if st, ok := w.objects[tag]; ok {
		return st.Location
	}
	return LocationNone
}

// Contain places inner directly inside outer. Both objects must be present
// and inner must not already have a parent; inner (and its subtree) moves
// to outer's location.
func (w *World) Contain(inner, outer Tag) error {
	in, ok := w.objects[inner]
	if !ok {
		return fmt.Errorf("model: contain: inner tag %d not present", inner)
	}
	out, ok := w.objects[outer]
	if !ok {
		return fmt.Errorf("model: contain: outer tag %d not present", outer)
	}
	if in.Parent != NoTag {
		return fmt.Errorf("model: contain: tag %d already contained in %d", inner, in.Parent)
	}
	if inner == outer {
		return fmt.Errorf("model: contain: tag %d cannot contain itself", inner)
	}
	in.Parent = outer
	out.Children[inner] = struct{}{}
	w.moveSubtree(in, out.Location)
	return nil
}

// Uncontain severs the containment between tag and its parent, if any.
func (w *World) Uncontain(tag Tag) {
	st, ok := w.objects[tag]
	if !ok || st.Parent == NoTag {
		return
	}
	if p, ok := w.objects[st.Parent]; ok {
		delete(p.Children, tag)
	}
	st.Parent = NoTag
}

// Move relocates an object and, transitively, everything it contains.
func (w *World) Move(tag Tag, loc LocationID) error {
	st, ok := w.objects[tag]
	if !ok {
		return fmt.Errorf("model: move: tag %d not present", tag)
	}
	w.moveSubtree(st, loc)
	return nil
}

func (w *World) moveSubtree(st *ObjectState, loc LocationID) {
	if st.Location != loc {
		w.indexRemove(st.Tag, st.Location)
		st.Location = loc
		w.indexAdd(st.Tag, loc)
	}
	for c := range st.Children {
		if cs, ok := w.objects[c]; ok {
			w.moveSubtree(cs, loc)
		}
	}
}

// Objects returns the tags of all present objects in ascending order.
func (w *World) Objects() []Tag {
	out := make([]Tag, 0, len(w.objects))
	for t := range w.objects {
		out = append(out, t)
	}
	slices.Sort(out)
	return out
}

// Each calls f with the state of every present object, in unspecified
// order: the unsorted walk of Objects.
func (w *World) Each(f func(*ObjectState)) {
	for _, st := range w.objects {
		f(st)
	}
}

// Len returns the number of objects currently in the world.
func (w *World) Len() int { return len(w.objects) }

// At returns the tags of all objects currently at loc, in ascending order.
func (w *World) At(loc LocationID) []Tag {
	m := w.byLoc[loc]
	if len(m) == 0 {
		return nil
	}
	out := make([]Tag, 0, len(m))
	for t := range m {
		out = append(out, t)
	}
	slices.Sort(out)
	return out
}

// AtAppend appends the tags of all objects currently at loc to dst in
// ascending order and returns the extended slice. It is At without the
// per-call allocation, for callers that sweep many readers per epoch.
func (w *World) AtAppend(dst []Tag, loc LocationID) []Tag {
	m := w.byLoc[loc]
	if len(m) == 0 {
		return dst
	}
	start := len(dst)
	for t := range m {
		dst = append(dst, t)
	}
	slices.Sort(dst[start:])
	return dst
}
