package compress

import (
	"spire/internal/event"
	"spire/internal/inference"
	"spire/internal/model"
	"spire/internal/trace"
)

// Level2 is the containment-based location compressor (§V-C). Containment
// output is identical to level 1, but while an object has a reported
// container its location updates are suppressed: the object's location is
// recoverable from its container's, so only top-level containers emit
// location events. When a containment starts, the child's open location
// pair is closed; when it ends, a fresh pair opens at the child's current
// location. Level2 shares Level1's state and everything but Compress and
// Retire.
type Level2 struct {
	Level1
}

// NewLevel2 creates a containment-based compressor.
func NewLevel2(levelOf LevelFunc) *Level2 {
	return &Level2{Level1{levelOf: levelOf, states: make(map[model.Tag]*objState), section: sectionLevel2}}
}

// Compress turns one epoch's inference result into level-2 output events.
func (c *Level2) Compress(res *inference.Result) []event.Event {
	var ems []emission
	now := res.Now
	for _, obj := range sortedTags(res) {
		st := c.state(obj)

		contained := st.parent != model.NoTag
		if newParent, ok := res.Parents[obj]; ok {
			st.compressContainment(obj, newParent, now, &ems)
			nowContained := newParent != model.NoTag
			if nowContained && !contained {
				// Containment starts: close the child's own pair — from
				// here its location rides on the container's reports.
				st.closeLocation(obj, now, &ems)
			}
			contained = nowContained
		}

		loc := res.Locations[obj]
		if contained {
			// Location suppressed; remember the child's virtual location
			// so a later containment end can reopen the pair correctly.
			// A disappearance is latched here too: the container's own
			// Missing message covers the whole group, so the child must
			// not re-report it if detached while still missing.
			if loc.Known() {
				st.lastKnown = loc
			}
			st.missing = !loc.Known()
			if c.rec != nil && c.rec.Traces(obj) {
				c.rec.Record(trace.Record{
					Epoch: now, Tag: obj, Mech: trace.MechSuppressed,
					Loc: st.lastKnown, Other: st.parent,
				})
			}
			continue
		}
		st.compressLocation(obj, loc, now, &ems)
	}
	return finish(ems)
}

// Retire closes the open pairs of an exiting object and forgets it. A
// still-contained object has no open location pair of its own; its stay
// was implied by the container. To let a decompressor close the implied
// pair at the exit epoch, Retire emits a zero-length Start/End location
// pair at the object's last known (virtual) location — the stream stays
// well-formed on its own, and decompression rewrites the pair's start back
// to its true beginning.
func (c *Level2) Retire(obj model.Tag, now model.Epoch) []event.Event {
	st, ok := c.states[obj]
	if !ok || st.parent == model.NoTag || st.missing || !st.lastKnown.Known() {
		return c.Level1.Retire(obj, now)
	}
	var ems []emission
	st.compressContainment(obj, model.NoTag, now, &ems)
	delete(c.states, obj)
	return append(finish(ems),
		event.NewStartLocation(obj, st.lastKnown, now),
		event.NewEndLocation(obj, st.lastKnown, now, now))
}
