package compress

import (
	"spire/internal/event"
	"spire/internal/inference"
	"spire/internal/model"
	"spire/internal/trace"
)

// Level1 is the range compressor (§V-B): it compares each object's newly
// inferred state with its previously reported state and emits events only
// on change. Location and containment are compressed independently, so the
// output can be split into two self-contained streams.
type Level1 struct {
	levelOf LevelFunc
	states  map[model.Tag]*objState
	rec     *trace.Recorder
	section string // snapshot section tag of the level
}

// NewLevel1 creates a range compressor.
func NewLevel1(levelOf LevelFunc) *Level1 {
	return &Level1{levelOf: levelOf, states: make(map[model.Tag]*objState), section: sectionLevel1}
}

func (c *Level1) state(obj model.Tag) *objState {
	st, ok := c.states[obj]
	if !ok {
		st = &objState{
			level:     c.levelOf(obj),
			loc:       model.LocationNone,
			lastKnown: model.LocationNone,
			parent:    model.NoTag,
		}
		c.states[obj] = st
	}
	return st
}

// Compress turns one epoch's inference result into output events. Objects
// absent from the result (withheld under partial inference) keep their
// previously reported state and produce nothing.
func (c *Level1) Compress(res *inference.Result) []event.Event {
	var ems []emission
	now := res.Now
	for _, obj := range sortedTags(res) {
		st := c.state(obj)

		// Containment stream.
		if newParent, ok := res.Parents[obj]; ok {
			st.compressContainment(obj, newParent, now, &ems)
		}

		st.compressLocation(obj, res.Locations[obj], now, &ems)
	}
	return finish(ems)
}

// Retire closes the open pairs of an object that exited the physical
// world through a proper channel and forgets its state.
func (c *Level1) Retire(obj model.Tag, now model.Epoch) []event.Event {
	st, ok := c.states[obj]
	if !ok {
		return nil
	}
	var ems []emission
	st.compressContainment(obj, model.NoTag, now, &ems)
	st.closeLocation(obj, now, &ems)
	delete(c.states, obj)
	return finish(ems)
}

// Close ends every open pair at epoch now, yielding a closed well-formed
// stream at the end of a run.
func (c *Level1) Close(now model.Epoch) []event.Event {
	var ems []emission
	for obj, st := range c.states {
		st.compressContainment(obj, model.NoTag, now, &ems)
		st.closeLocation(obj, now, &ems)
	}
	c.states = make(map[model.Tag]*objState)
	return finish(ems)
}

// SetTracer attaches a decision-provenance recorder. Level 2 records a
// suppression decision for each traced object whose location update is
// withheld because a container reports for it (§V-C); level 1 emits every
// state change explicitly, so it has no suppression decisions to record.
func (c *Level1) SetTracer(rec *trace.Recorder) { c.rec = rec }
