// Package federate merges the compressed output streams of several SPIRE
// substrates into one warehouse-wide stream — the building block of the
// distributed deployment the paper lists as future work (and that its
// follow-up, "Distributed Inference and Query Processing for RFID
// Tracking and Monitoring", builds at scale).
//
// A large site runs one substrate per zone (per dock, per aisle block),
// each covering a disjoint set of locations. Objects move between zones,
// so the per-zone streams are individually well-formed but mutually
// inconsistent: when zone B first reports an object, zone A's interval
// for it may still be open, and neither zone knows about the handoff.
//
// The Merger consumes per-epoch batches from every zone and emits a
// single consistent stream by applying zone-priority reconciliation:
//
//   - the zone that most recently observed an object owns its state;
//     every Start message (location or containment) transfers ownership
//     to its reporting zone;
//   - when a new zone opens a location (or containment) interval for an
//     object whose interval from another zone is still open, the stale
//     interval is closed at the handoff epoch. A handoff in the same
//     epoch the stale interval opened clamps it to a single-epoch
//     interval [Vs, Vs] rather than suppressing it, so every emitted
//     Start keeps a matching End;
//   - a StartContainment naming the container that is already open is
//     the same physical fact re-observed (containers, unlike locations,
//     are not bound to one zone), so it is suppressed — but it still
//     transfers ownership to the reporting zone;
//   - end messages from a zone that no longer owns the object are
//     dropped (its view is stale);
//   - Missing messages are accepted only from the owning zone (or for an
//     object no zone has claimed, whose first reporter becomes the
//     owner), deferred to the end of the epoch, and latched — so an
//     object in transit between zones raises at most one alarm per
//     disappearance, and no alarm at all when another zone picks the
//     object up in the same epoch. Missing never touches containment
//     state: the location and containment streams stay independent,
//     exactly as in the per-substrate compressors.
//
// Feed batches epoch-aligned (all zones' batches for epoch t before any
// batch for t+1) and call EndEpoch at each epoch boundary — the barrier
// that resolves deferred Missing messages — or hand each epoch's batches
// to MergeEpoch, which does both. The merged stream satisfies
// event.CheckWellFormed.
package federate

import (
	"fmt"
	"slices"

	"spire/internal/event"
	"spire/internal/model"
)

// ZoneID identifies one source substrate.
type ZoneID int

// objState is the merger's payload on an object's merged open pairs.
type objState struct {
	owner ZoneID

	// missing latches after a forwarded Missing so repeated alarms for
	// one disappearance collapse to one; cleared by the next
	// StartLocation.
	missing bool
}

// entry is one object's merged open pairs and merger state.
type entry = event.Entry[objState]

// Merger reconciles per-zone streams. Feed batches in epoch order (all
// zones' batches for epoch t before any batch for t+1) and, once every
// zone's batch for an epoch is in, call EndEpoch to flush deferred
// Missing messages; within an epoch, feed zones in any fixed order. It
// is not safe for concurrent use.
type Merger struct {
	states   *event.Intervals[objState]
	lastTime model.Epoch
	out      []event.Event
	pending  []event.Event // Missing messages staged until the epoch barrier

	// claims records each object's last asserted location in the current
	// epoch — set by forwarded location events, including an End whose
	// object was retired in the same epoch. The epoch barrier uses claims
	// to catch containment contradictions involving objects whose
	// interval already closed again (e.g. a container retired at an exit
	// the same epoch it got there). Missing-triggered closes assert no
	// location, so they never set a claim.
	claims map[model.Tag]model.LocationID

	// touched lists the objects applied since the last barrier (with
	// repeats); with the containers' contents it bounds the barrier's
	// conflict check to what this epoch changed.
	touched []model.Tag
}

// NewMerger returns an empty merger.
func NewMerger() *Merger {
	return &Merger{
		states:   event.NewIntervals[objState](),
		lastTime: model.EpochNone,
		claims:   make(map[model.Tag]model.LocationID),
	}
}

func (m *Merger) state(g model.Tag) *entry {
	return m.states.Track(g, objState{owner: -1})
}

// Ingest merges one zone's batch for one epoch and returns the merged
// events it produced. Events within the batch must be in the zone
// compressor's emission order. Missing messages are deferred to EndEpoch,
// so they never appear in Ingest output directly.
func (m *Merger) Ingest(zone ZoneID, events []event.Event) ([]event.Event, error) {
	m.out = m.out[:0]
	if err := m.ingest(zone, events); err != nil {
		return nil, err
	}
	return append([]event.Event(nil), m.out...), nil
}

// MergeEpoch is the coordinator's epoch barrier in one call: it ingests
// every zone's batch for the epoch in fixed zone order 0..N-1, then runs
// EndEpoch — or Close(epoch) when final is set — and returns everything
// emitted, in order. The result is exactly what Ingest per zone followed
// by EndEpoch or Close would return, errors included.
func (m *Merger) MergeEpoch(epoch model.Epoch, batches [][]event.Event, final bool) ([]event.Event, error) {
	m.out = m.out[:0]
	for z, b := range batches {
		if err := m.ingest(ZoneID(z), b); err != nil {
			return nil, err
		}
	}
	m.barrier()
	if final {
		m.closeOpen(epoch)
	}
	return append([]event.Event(nil), m.out...), nil
}

// ingest applies one zone's batch, appending to m.out.
func (m *Merger) ingest(zone ZoneID, events []event.Event) error {
	for _, e := range events {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("federate: zone %d: %w", zone, err)
		}
		emitted := e.Emitted()
		if emitted < m.lastTime {
			return fmt.Errorf("federate: zone %d: event %v at %d before merged stream time %d",
				zone, e, emitted, m.lastTime)
		}
		// A later epoch arrived before EndEpoch was called: run the
		// previous epoch's barrier first so its conflict closes and
		// deferred alarms keep their place in the stream.
		if emitted > m.lastTime && m.lastTime != model.EpochNone {
			m.barrier()
		}
		if err := m.apply(zone, e); err != nil {
			return fmt.Errorf("federate: zone %d: %w", zone, err)
		}
		if emitted > m.lastTime {
			m.lastTime = emitted
		}
	}
	return nil
}

// EndEpoch is the epoch barrier: once every zone's batch for the current
// epoch has been ingested, it resolves cross-zone containment conflicts
// and the epoch's deferred Missing messages — forwarding one alarm per
// object that no zone re-opened this epoch, and discarding alarms for
// objects another zone picked up.
func (m *Merger) EndEpoch() []event.Event {
	m.out = m.out[:0]
	m.barrier()
	return append([]event.Event(nil), m.out...)
}

// barrier runs the end-of-epoch resolution steps in order: cross-zone
// containment conflicts first, then deferred Missing alarms.
func (m *Merger) barrier() {
	m.resolveContainmentConflicts()
	m.flushPending()
	clear(m.claims)
	m.touched = m.touched[:0]
}

// resolveContainmentConflicts applies the substrate's conflict-resolution
// invariant — containment implies colocation — across zones. A zone only
// sees contradictions between objects it observes; when a container hands
// off to another zone while its contents stay behind, the contradiction
// (container here, contents there) is only visible in the merged state.
// Any open containment whose two ends sit at different merged locations
// is closed at the current epoch, in tag order, exactly when a single
// substrate seeing both locations would close it. Objects whose location
// is unknown (missing, or in transit between zones this epoch) are left
// alone: absence of evidence is not a contradiction, matching the
// per-substrate rule that a missing object keeps its containment.
func (m *Merger) resolveContainmentConflicts() {
	for _, g := range m.conflicts() {
		o := m.states.Get(g)
		c, vs, _ := o.Container()
		m.emit(event.NewEndContainment(g, c, vs, m.lastTime))
		m.states.Release(o)
	}
}

// conflicts returns, sorted, the objects whose open containment
// contradicts their container's location. The previous barrier closed
// every contradiction, and clearing its claims only turns locations
// unknown, so a new contradiction needs an event applied since to one of
// its two ends: it is a touched object, or one of a touched container's
// contents.
func (m *Merger) conflicts() []model.Tag {
	slices.Sort(m.touched)
	m.touched = slices.Compact(m.touched)
	var objs []model.Tag
	for _, g := range m.touched {
		if m.conflicted(m.states.Get(g)) {
			objs = append(objs, g)
		}
		for _, c := range m.states.Contents(g) {
			if m.conflicted(m.states.Get(c)) {
				objs = append(objs, c)
			}
		}
	}
	slices.Sort(objs)
	return slices.Compact(objs)
}

// conflicted reports whether o's open containment contradicts its
// container's location.
func (m *Merger) conflicted(o *entry) bool {
	c, _, open := o.Container()
	if !open {
		return false
	}
	childLoc, childKnown := m.effectiveLoc(o.Tag())
	if !childKnown {
		return false
	}
	parentLoc, parentKnown := m.effectiveLoc(c)
	return parentKnown && parentLoc != childLoc
}

// effectiveLoc is the object's location as of this epoch's barrier: the
// location it asserted this epoch (even if the interval closed again),
// else its open interval's location, else unknown.
func (m *Merger) effectiveLoc(g model.Tag) (model.LocationID, bool) {
	if l, ok := m.claims[g]; ok {
		return l, true
	}
	if loc, _, open := m.states.Get(g).Location(); open {
		return loc, true
	}
	return model.LocationNone, false
}

// flushPending resolves deferred Missing messages against the post-batch
// state, appending forwarded alarms to m.out.
func (m *Merger) flushPending() {
	for _, p := range m.pending {
		o := m.state(p.Object)
		if _, _, open := o.Location(); open || o.Payload.missing {
			continue // picked up by another zone, or already alarmed
		}
		o.Payload.missing = true
		m.emit(p)
	}
	m.pending = m.pending[:0]
}

func (m *Merger) apply(zone ZoneID, e event.Event) error {
	o := m.state(e.Object)
	st := &o.Payload
	m.touched = append(m.touched, e.Object)
	loc, locVs, locOpen := o.Location()
	cont, contVs, contOpen := o.Container()
	switch e.Kind {
	case event.StartLocation:
		// The reporting zone takes ownership; close any stale interval
		// from the previous owner at the handoff epoch. A same-epoch
		// handoff (e.Vs == locVs) clamps the stale interval to the
		// single-epoch interval [Vs, Vs] — suppressing the End instead
		// would orphan the already-emitted Start.
		if locOpen {
			if st.owner == zone && loc == e.Location {
				return nil // duplicate of the already-open interval
			}
			m.emit(event.NewEndLocation(e.Object, loc, locVs, e.Vs))
		}
		st.owner = zone
		st.missing = false
		o.OpenLocation(e.Location, e.Vs)
		m.claims[e.Object] = e.Location
		m.emit(event.NewStartLocation(e.Object, e.Location, e.Vs))
	case event.EndLocation:
		if st.owner != zone || !locOpen || loc != e.Location {
			return nil // stale view from a zone that lost the object
		}
		o.CloseLocation()
		m.claims[e.Object] = e.Location
		m.emit(event.NewEndLocation(e.Object, e.Location, locVs, e.Ve))
	case event.Missing:
		if st.owner != zone && st.owner != -1 {
			return nil // only the owner may declare the object missing
		}
		// First reporter of an unclaimed object becomes its owner, so
		// later duplicate alarms from other zones drop.
		st.owner = zone
		if locOpen {
			m.emit(event.NewEndLocation(e.Object, loc, locVs, e.Vs))
			o.CloseLocation()
		}
		// Defer the alarm to the epoch barrier: another zone may claim
		// the object later in this same epoch, which retracts it.
		m.pending = append(m.pending, event.NewMissing(e.Object, e.Location, e.Vs))
	case event.StartContainment:
		if contOpen && cont == e.Container {
			// Same containment re-observed from a (possibly different)
			// zone: nothing new to report, but the reporter is now the
			// most recent observer and takes ownership.
			st.owner = zone
			return nil
		}
		if err := m.states.Contain(o, e.Container, e.Vs); err != nil {
			return err
		}
		if contOpen {
			m.emit(event.NewEndContainment(e.Object, cont, contVs, e.Vs))
		}
		st.owner = zone
		m.emit(event.NewStartContainment(e.Object, e.Container, e.Vs))
	case event.EndContainment:
		if st.owner != zone || !contOpen || cont != e.Container {
			return nil // stale view from a zone that lost the object
		}
		m.states.Release(o)
		m.emit(event.NewEndContainment(e.Object, e.Container, contVs, e.Ve))
	}
	return nil
}

func (m *Merger) emit(e event.Event) { m.out = append(m.out, e) }

// Close resolves any deferred alarms and ends every open merged interval
// at epoch now.
func (m *Merger) Close(now model.Epoch) []event.Event {
	m.out = m.out[:0]
	m.barrier()
	m.closeOpen(now)
	return append([]event.Event(nil), m.out...)
}

// closeOpen ends every open merged interval at epoch now, in tag order,
// appending to m.out.
func (m *Merger) closeOpen(now model.Epoch) {
	m.states.EachOpen(func(o *entry) {
		if c, vs, open := o.Container(); open {
			m.emit(event.NewEndContainment(o.Tag(), c, vs, now))
			m.states.Release(o)
		}
		if loc, vs, open := o.Location(); open {
			m.emit(event.NewEndLocation(o.Tag(), loc, vs, now))
			o.CloseLocation()
		}
	})
}

// Objects reports the number of objects the merger has seen.
func (m *Merger) Objects() int { return m.states.Len() }

// NewParallelMerger returns NewMerger().
//
// Deprecated: kept only for benchmark/cluster.go, which times the
// coordinator's merger through it; use NewMerger.
func NewParallelMerger(int) *Merger { return NewMerger() }
