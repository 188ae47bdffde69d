package compress

import (
	"fmt"
	"slices"

	"spire/internal/event"
	"spire/internal/model"
)

// Decompressor transforms a level-2 compressed stream back into a level-1
// compressed stream on demand (§V-C). It maintains the containment
// hierarchy from the containment messages and propagates each container's
// location updates to its (transitively) contained objects, suppressing
// the duplicate events that arise at containment boundaries and the
// artificial pair breaks level-2 introduces when a containment starts.
//
// Feed events one epoch at a time via Step; within an epoch the level-2
// compressor guarantees containment messages precede location messages and
// containers precede their contents, which Step relies on.
type Decompressor struct {
	// objs holds each object's reconstructed location pair and level-2
	// containment pair. The payload, where and when the location pair
	// last closed, tells the zero-length-couple handling below "this stay
	// was already closed this epoch" (a cascade did the work) from "the
	// object arrived here this epoch" (a genuine zero-length stay).
	objs *event.Intervals[closedPair]

	// pending holds the containments started in the current epoch; after
	// the epoch's location events are processed, children that still
	// disagree with their new container's open location are aligned (the
	// container may itself move within the joining epoch, so alignment
	// cannot happen eagerly).
	pending []event.Event

	out []event.Event
}

// closedPair records the closing of an object's location pair.
type closedPair struct {
	loc model.LocationID
	at  model.Epoch
}

// NewDecompressor creates an empty decompressor.
func NewDecompressor() *Decompressor {
	return &Decompressor{objs: event.NewIntervals[closedPair]()}
}

// obj returns the tracker entry for g, adding it if needed.
func (d *Decompressor) obj(g model.Tag) *event.Entry[closedPair] {
	return d.objs.Track(g, closedPair{loc: model.LocationNone, at: model.EpochNone})
}

// Step decompresses one epoch's worth of level-2 events and returns the
// corresponding level-1 events, in the order the level-2 compressor (and
// its Retire calls) emitted them. A batch may contain several
// containment-phase/location-phase segments — one per Compress or Retire
// call — which are processed in sequence. Malformed input, including a
// containment that would close a cycle, is rejected with an error.
func (d *Decompressor) Step(events []event.Event) ([]event.Event, error) {
	d.out = d.out[:0]
	for len(events) > 0 {
		// A segment is a run of containment events followed by a run of
		// location events.
		i := 0
		for i < len(events) && events[i].Kind.Containment() {
			i++
		}
		for i < len(events) && !events[i].Kind.Containment() {
			i++
		}
		if err := d.stepSegment(events[:i]); err != nil {
			return nil, err
		}
		events = events[i:]
	}
	return slices.Clone(d.out), nil
}

func (d *Decompressor) stepSegment(events []event.Event) error {
	d.pending = d.pending[:0]
	phase := 0
	for _, e := range events {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("compress: %w", err)
		}
		if e.Kind.Containment() {
			if phase == 1 {
				return fmt.Errorf("compress: containment event %v after location events in segment", e)
			}
			if err := d.applyContainment(e); err != nil {
				return err
			}
		} else {
			phase = 1
		}
	}
	var deferredEnds []event.Event
	for i := 0; i < len(events); i++ {
		e := events[i]
		if e.Kind.Containment() {
			continue
		}
		// A zero-length Start/End couple means "this object's presence ends
		// here at t". If the reconstructed pair is still open, close it
		// (the pair's real extent replaces the zero-length one). If it was
		// already closed this epoch at this very location, a cascade did
		// the work and nothing remains. Otherwise the object genuinely
		// arrived here this epoch and the zero-length stay is reproduced
		// literally.
		if e.Kind == event.StartLocation && i+1 < len(events) {
			n := events[i+1]
			if n.Kind == event.EndLocation && n.Object == e.Object &&
				n.Location == e.Location && n.Vs == e.Vs && n.Ve == e.Vs {
				o := d.obj(e.Object)
				if cur, _, open := o.Location(); open {
					d.endCascade(o, cur, n.Ve)
				} else if lc := o.Payload; lc.at != n.Ve || lc.loc != e.Location {
					d.startPair(o, e.Location, e.Vs)
					d.endPair(o, n.Ve)
				}
				i++
				continue
			}
		}
		// An EndLocation for a currently contained object is level-2's
		// containment-start artifact; whether the level-1 pair really
		// closes depends on where the container finally settles this
		// epoch, so judge it after the alignment pass below.
		if e.Kind == event.EndLocation {
			if _, _, contained := d.objs.Get(e.Object).Container(); contained {
				deferredEnds = append(deferredEnds, e)
				continue
			}
		}
		d.applyLocation(e)
	}
	// Align this epoch's joiners with their containers' settled locations:
	// a child that joined a container which emitted no location event this
	// epoch inherits the container's open pair now.
	for _, e := range d.pending {
		o := d.objs.Get(e.Object)
		if p, _, _ := o.Container(); p != e.Container {
			continue // re-parented or detached again within the epoch
		}
		if ploc, _, ok := d.objs.Get(e.Container).Location(); ok {
			if cloc, _, open := o.Location(); !open || cloc != ploc {
				d.startCascade(o, ploc, e.Vs)
			}
		}
	}
	for _, e := range deferredEnds {
		d.applyLocation(e)
	}
	return nil
}

// Close ends every reconstructed pair still open at epoch now. Call it
// after feeding the final (closing) batch of the level-2 stream: the
// level-2 Close detaches containments before its location ends, so
// contained objects' reconstructed pairs are left for this sweep.
func (d *Decompressor) Close(now model.Epoch) []event.Event {
	d.out = d.out[:0]
	d.objs.EachOpen(func(o *event.Entry[closedPair]) { d.endPair(o, now) })
	return slices.Clone(d.out)
}

func (d *Decompressor) applyContainment(e event.Event) error {
	o := d.obj(e.Object)
	switch e.Kind {
	case event.StartContainment:
		if c, _, open := o.Container(); open && c == e.Container {
			break
		}
		if err := d.objs.Contain(o, e.Container, e.Vs); err != nil {
			return fmt.Errorf("compress: %v: %w", e, err)
		}
		d.pending = append(d.pending, e)
	case event.EndContainment:
		if c, _, open := o.Container(); open && c == e.Container {
			d.objs.Release(o)
		}
	}
	// Containment messages pass through unchanged.
	d.out = append(d.out, e)
	return nil
}

func (d *Decompressor) applyLocation(e event.Event) {
	o := d.obj(e.Object)
	switch e.Kind {
	case event.StartLocation:
		d.startCascade(o, e.Location, e.Vs)
	case event.EndLocation:
		cur, _, open := o.Location()
		if !open || cur != e.Location {
			// The pair this event refers to was already closed (or moved)
			// by a container's cascading update earlier in the epoch.
			return
		}
		// Suppress the artificial close that level-2 emits when an object
		// becomes contained in a container already open at the same
		// location: in the level-1 view the pair simply continues.
		if p, _, contained := o.Container(); contained {
			if ploc, _, ok := d.objs.Get(p).Location(); ok && ploc == e.Location {
				return
			}
		}
		d.endCascade(o, e.Location, e.Ve)
	case event.Missing:
		d.missingCascade(o, e.Location, e.Vs)
	}
}

// startCascade opens a pair at loc for o and, recursively, for its
// contents, skipping duplicates (already open at the same location).
func (d *Decompressor) startCascade(o *event.Entry[closedPair], loc model.LocationID, t model.Epoch) {
	if cur, _, open := o.Location(); open {
		if cur == loc {
			// Duplicate: e.g. the StartLocation level-2 emits when a
			// containment ends but the object has not actually moved.
			return
		}
		d.endPair(o, t)
	}
	d.startPair(o, loc, t)
	for _, c := range d.objs.Contents(o.Tag()) {
		d.startCascade(d.objs.Get(c), loc, t)
	}
}

// endCascade closes o's pair at loc and recurses into the contents that
// shared that location. A child open elsewhere did not co-reside with the
// departing container (it joined this very epoch from the container's
// destination); its pair is left for the container's Start cascade or the
// deferred alignment.
func (d *Decompressor) endCascade(o *event.Entry[closedPair], loc model.LocationID, t model.Epoch) {
	if cur, _, open := o.Location(); !open || cur != loc {
		return
	}
	d.endPair(o, t)
	for _, c := range d.objs.Contents(o.Tag()) {
		d.endCascade(d.objs.Get(c), loc, t)
	}
}

func (d *Decompressor) missingCascade(o *event.Entry[closedPair], from model.LocationID, t model.Epoch) {
	d.endPair(o, t)
	d.out = append(d.out, event.NewMissing(o.Tag(), from, t))
	for _, c := range d.objs.Contents(o.Tag()) {
		d.missingCascade(d.objs.Get(c), from, t)
	}
}

func (d *Decompressor) startPair(o *event.Entry[closedPair], loc model.LocationID, t model.Epoch) {
	d.out = append(d.out, event.NewStartLocation(o.Tag(), loc, t))
	o.OpenLocation(loc, t)
}

// endPair closes o's open pair, rewriting Vs to the reconstructed pair's
// true start (level-2 pairs can start later than the level-1 ones).
func (d *Decompressor) endPair(o *event.Entry[closedPair], t model.Epoch) {
	loc, vs, open := o.Location()
	if !open {
		return
	}
	d.out = append(d.out, event.NewEndLocation(o.Tag(), loc, vs, t))
	o.Payload = closedPair{loc: loc, at: t}
	o.CloseLocation()
}
