// Package compress implements SPIRE's output module (Section V of the
// paper): translation of per-epoch inference results into a compressed,
// well-formed event stream.
//
// Two compression levels are provided:
//
//   - Level1 (range compression, §V-B): only state *changes* are emitted —
//     a stationary object's entire stay collapses into one
//     start/end-location pair, a stable containment into one
//     start/end-containment pair. The location and containment streams are
//     independent and the output is directly queriable.
//
//   - Level2 (location compression using containment, §V-C): additionally,
//     the location updates of contained objects are suppressed — only
//     top-level containers report locations. A Decompressor reconstructs
//     the level-1 stream on demand.
//
// Both are lossless with respect to interpreted state: every reported
// state change is preserved, and level-2 locations are recoverable through
// the containment hierarchy.
package compress

import (
	"sort"

	"spire/internal/event"
	"spire/internal/inference"
	"spire/internal/model"
)

// LevelFunc reports the packaging level of a tag. Compressors use it only
// to order emissions (containers before their contents within an epoch),
// which is what makes level-2 decompression exact.
type LevelFunc func(model.Tag) model.Level

// objState is the per-object reporting state shared by both compressors.
type objState struct {
	level model.Level

	// Open location pair (locOpen) and its start epoch.
	loc     model.LocationID
	locOpen bool
	locVs   model.Epoch

	// lastKnown is the most recent known reported (or, for level-2
	// contained objects, virtual) location — the locationMissingFrom of a
	// Missing message.
	lastKnown model.LocationID

	// Reported containment pair.
	parent   model.Tag
	parentVs model.Epoch

	// missing latches so a vanished object emits a single Missing message
	// per disappearance.
	missing bool
}

// emission is an event staged for in-epoch ordering.
type emission struct {
	ev    event.Event
	level model.Level
	seq   int // ordering among same-object emissions (End before Start)
}

// sortEpoch orders one epoch's emissions: containment messages first, then
// location messages; within each phase containers (higher packaging
// levels) come before their contents, then tag order, then the staging
// sequence (which puts an object's End before its Start).
func sortEpoch(ems []emission) {
	sort.SliceStable(ems, func(i, j int) bool {
		ci, cj := ems[i].ev.Kind.Containment(), ems[j].ev.Kind.Containment()
		if ci != cj {
			return ci
		}
		if ems[i].level != ems[j].level {
			return ems[i].level > ems[j].level
		}
		if ems[i].ev.Object != ems[j].ev.Object {
			return ems[i].ev.Object < ems[j].ev.Object
		}
		return ems[i].seq < ems[j].seq
	})
}

func finish(ems []emission) []event.Event {
	if len(ems) == 0 {
		return nil
	}
	sortEpoch(ems)
	out := make([]event.Event, len(ems))
	for i, e := range ems {
		out[i] = e.ev
	}
	return out
}

// sortedTags returns the result's interpreted objects in tag order.
func sortedTags(res *inference.Result) []model.Tag {
	tags := make([]model.Tag, 0, len(res.Locations))
	for t := range res.Locations {
		tags = append(tags, t)
	}
	sort.Slice(tags, func(i, j int) bool { return tags[i] < tags[j] })
	return tags
}

// compressContainment updates the containment pair of one object and
// stages the End/Start messages. Shared by both levels — containment
// output is identical between them. Returns true if containment changed.
func (st *objState) compressContainment(obj model.Tag, newParent model.Tag, now model.Epoch, ems *[]emission) bool {
	if st.parent == newParent {
		return false
	}
	if st.parent != model.NoTag {
		*ems = append(*ems, emission{
			ev:    event.NewEndContainment(obj, st.parent, st.parentVs, now),
			level: st.level, seq: 0,
		})
	}
	if newParent != model.NoTag {
		*ems = append(*ems, emission{
			ev:    event.NewStartContainment(obj, newParent, now),
			level: st.level, seq: 1,
		})
	}
	st.parent = newParent
	st.parentVs = now
	return true
}

// compressLocation updates the location pair of one object to its newly
// inferred location and stages the End/Start or Missing messages.
func (st *objState) compressLocation(obj model.Tag, loc model.LocationID, now model.Epoch, ems *[]emission) {
	switch {
	case loc.Known():
		st.missing = false
		if !st.locOpen || st.loc != loc {
			st.closeLocation(obj, now, ems)
			st.openLocation(obj, loc, now, ems)
		}
	default: // model.LocationUnknown: away from every known location
		st.goMissing(obj, now, ems)
	}
}

// closeLocation stages the EndLocation for an open pair, if any.
func (st *objState) closeLocation(obj model.Tag, now model.Epoch, ems *[]emission) {
	if st.locOpen {
		*ems = append(*ems, emission{
			ev:    event.NewEndLocation(obj, st.loc, st.locVs, now),
			level: st.level, seq: 2,
		})
		st.locOpen = false
	}
}

// openLocation stages a StartLocation and opens the pair.
func (st *objState) openLocation(obj model.Tag, loc model.LocationID, now model.Epoch, ems *[]emission) {
	*ems = append(*ems, emission{
		ev:    event.NewStartLocation(obj, loc, now),
		level: st.level, seq: 3,
	})
	st.loc = loc
	st.locOpen = true
	st.locVs = now
	st.lastKnown = loc
}

// goMissing stages the End + singleton Missing transition.
func (st *objState) goMissing(obj model.Tag, now model.Epoch, ems *[]emission) {
	st.closeLocation(obj, now, ems)
	if !st.missing {
		from := st.lastKnown
		if !from.Known() {
			from = model.LocationUnknown
		}
		*ems = append(*ems, emission{
			ev:    event.NewMissing(obj, from, now),
			level: st.level, seq: 4,
		})
		st.missing = true
	}
}
