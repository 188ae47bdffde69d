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
	open    opens // the open intervals of states
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
	sg := staging{open: &c.open}
	now := res.Now
	for _, v := range res.Rows() {
		st := c.state(v.Tag)

		// Containment stream.
		if v.HasParent {
			st.compressContainment(v.Tag, v.Parent, now, &sg)
		}

		st.compressLocation(v.Tag, v.Location, now, &sg)
	}
	return finish(sg.ems)
}

// Retire closes the open pairs of an object that exited the physical
// world through a proper channel and forgets its state.
func (c *Level1) Retire(obj model.Tag, now model.Epoch) []event.Event {
	st, ok := c.states[obj]
	if !ok {
		return nil
	}
	sg := staging{open: &c.open}
	st.compressContainment(obj, model.NoTag, now, &sg)
	st.closeLocation(obj, now, &sg)
	delete(c.states, obj)
	return finish(sg.ems)
}

// Close ends every open pair at epoch now, yielding a closed well-formed
// stream at the end of a run.
func (c *Level1) Close(now model.Epoch) []event.Event {
	sg := staging{open: &c.open}
	for obj, st := range c.states {
		st.compressContainment(obj, model.NoTag, now, &sg)
		st.closeLocation(obj, now, &sg)
	}
	c.states = make(map[model.Tag]*objState)
	return finish(sg.ems)
}

// SetTracer attaches a decision-provenance recorder. Level 2 records a
// suppression decision for each traced object whose location update is
// withheld because a container reports for it (§V-C); level 1 emits every
// state change explicitly, so it has no suppression decisions to record.
func (c *Level1) SetTracer(rec *trace.Recorder) { c.rec = rec }
