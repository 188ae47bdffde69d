package event

import (
	"fmt"
	"slices"
	"sort"

	"spire/internal/model"
)

// Intervals tracks the open state of a five-message stream (§V): per
// object, the open location pair (location, Vs) and containment pair
// (container, Vs), and per container its open contents in tag order. It
// is the one place the pair rules live for the stream's consumers: one
// open pair of each kind per object, contents that follow every
// containment change, and containment that stays a forest (a cycle is
// rejected). Each entry carries a consumer-defined payload P, so a
// consumer keeps one per-object map. CheckWellFormed is deliberately an
// independent implementation: it is the oracle the consumers are tested
// against.
type Intervals[P any] struct {
	objs     map[model.Tag]*Entry[P]
	contents map[model.Tag][]model.Tag
}

// Entry is one object's open state and payload.
type Entry[P any] struct {
	Payload P

	tag       model.Tag
	loc       model.LocationID
	locVs     model.Epoch
	locOpen   bool
	container model.Tag // NoTag while no containment pair is open
	contVs    model.Epoch
}

// NewIntervals returns an empty tracker.
func NewIntervals[P any]() *Intervals[P] {
	return &Intervals[P]{
		objs:     make(map[model.Tag]*Entry[P]),
		contents: make(map[model.Tag][]model.Tag),
	}
}

// Get returns obj's entry, or nil if obj is not tracked.
func (iv *Intervals[P]) Get(obj model.Tag) *Entry[P] { return iv.objs[obj] }

// Track returns obj's entry, adding one with no open pair and payload
// init if obj is not tracked yet.
func (iv *Intervals[P]) Track(obj model.Tag, init P) *Entry[P] {
	o, ok := iv.objs[obj]
	if !ok {
		o = &Entry[P]{Payload: init, tag: obj, loc: model.LocationNone}
		iv.objs[obj] = o
	}
	return o
}

// Len reports the number of tracked objects.
func (iv *Intervals[P]) Len() int { return len(iv.objs) }

// Forget drops obj's entry, closing its containment pair. Objects that
// obj itself contains keep their pairs.
func (iv *Intervals[P]) Forget(obj model.Tag) {
	if o, ok := iv.objs[obj]; ok {
		iv.Release(o)
		delete(iv.objs, obj)
	}
}

// Tag returns the entry's object.
func (o *Entry[P]) Tag() model.Tag { return o.tag }

// Location returns the open location pair, if any. A nil entry (an
// untracked object) has none.
func (o *Entry[P]) Location() (loc model.LocationID, vs model.Epoch, open bool) {
	if o == nil {
		return model.LocationNone, 0, false
	}
	return o.loc, o.locVs, o.locOpen
}

// Container returns the open containment pair, if any. A nil entry has
// none.
func (o *Entry[P]) Container() (container model.Tag, vs model.Epoch, open bool) {
	if o == nil {
		return model.NoTag, 0, false
	}
	return o.container, o.contVs, o.container != model.NoTag
}

// OpenLocation opens the location pair (loc, vs), replacing any open one;
// a consumer that reports the replaced pair's End reads it first.
func (o *Entry[P]) OpenLocation(loc model.LocationID, vs model.Epoch) {
	o.loc, o.locVs, o.locOpen = loc, vs, true
}

// CloseLocation closes the open location pair, if any.
func (o *Entry[P]) CloseLocation() { o.locOpen = false }

// Contain opens the containment pair (container, vs), replacing any open
// one. It rejects, changing nothing, a containment that would close a
// cycle: the object is the container, or the container is already
// (transitively) inside the object.
func (iv *Intervals[P]) Contain(o *Entry[P], container model.Tag, vs model.Epoch) error {
	for c := container; c != model.NoTag; c, _, _ = iv.objs[c].Container() {
		if c == o.tag {
			return fmt.Errorf("event: containment of %d in %d closes a cycle", o.tag, container)
		}
	}
	iv.Release(o)
	o.container, o.contVs = container, vs
	kids := iv.contents[container]
	i, _ := slices.BinarySearch(kids, o.tag)
	iv.contents[container] = slices.Insert(kids, i, o.tag)
	return nil
}

// Release closes the open containment pair, if any.
func (iv *Intervals[P]) Release(o *Entry[P]) {
	if o.container == model.NoTag {
		return
	}
	kids := iv.contents[o.container]
	i, _ := slices.BinarySearch(kids, o.tag)
	if kids = slices.Delete(kids, i, i+1); len(kids) == 0 {
		delete(iv.contents, o.container)
	} else {
		iv.contents[o.container] = kids
	}
	o.container = model.NoTag
}

// Contents returns the objects whose open containment pair names
// container, in tag order. The slice is the tracker's own: it is valid
// until the next Contain or Release and must not be modified.
func (iv *Intervals[P]) Contents(container model.Tag) []model.Tag {
	return iv.contents[container]
}

// EachOpen calls fn, in tag order, for every entry with an open location
// or containment pair. fn may close the entry's pairs.
func (iv *Intervals[P]) EachOpen(fn func(*Entry[P])) {
	open := make([]*Entry[P], 0, len(iv.objs))
	for _, o := range iv.objs {
		if o.locOpen || o.container != model.NoTag {
			open = append(open, o)
		}
	}
	sort.Slice(open, func(i, j int) bool { return open[i].tag < open[j].tag })
	for _, o := range open {
		fn(o)
	}
}
