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

// objState tracks an object's merged state.
type objState struct {
	owner ZoneID

	locOpen bool
	loc     model.LocationID
	locVs   model.Epoch

	contOpen  bool
	container model.Tag
	contVs    model.Epoch

	// missing latches after a forwarded Missing so repeated alarms for
	// one disappearance collapse to one; cleared by the next
	// StartLocation.
	missing bool
}

// pendingMissing is a Missing message staged until the epoch barrier.
type pendingMissing struct {
	obj  model.Tag
	from model.LocationID
	at   model.Epoch
}

// Merger reconciles per-zone streams. Feed batches in epoch order (all
// zones' batches for epoch t before any batch for t+1) and, once every
// zone's batch for an epoch is in, call EndEpoch to flush deferred
// Missing messages; within an epoch, feed zones in any fixed order. It
// is not safe for concurrent use.
type Merger struct {
	states   map[model.Tag]*objState
	lastTime model.Epoch
	out      []event.Event
	pending  []pendingMissing

	// claims records each object's last asserted location in the current
	// epoch — set by forwarded location events, including an End whose
	// object was retired in the same epoch. The epoch barrier uses claims
	// to catch containment contradictions involving objects whose
	// interval already closed again (e.g. a container retired at an exit
	// the same epoch it got there). Missing-triggered closes assert no
	// location, so they never set a claim.
	claims map[model.Tag]model.LocationID

	// touched lists the objects applied since the last barrier (with
	// repeats), and children maps a container to the objects whose
	// containment named it when it opened — entries go stale when that
	// containment closes and are pruned when next scanned. Together they
	// bound the barrier's conflict check to what this epoch changed.
	touched  []model.Tag
	children map[model.Tag][]model.Tag
}

// NewMerger returns an empty merger.
func NewMerger() *Merger {
	return &Merger{
		states:   make(map[model.Tag]*objState),
		lastTime: model.EpochNone,
		claims:   make(map[model.Tag]model.LocationID),
		children: make(map[model.Tag][]model.Tag),
	}
}

func (m *Merger) state(g model.Tag) *objState {
	st, ok := m.states[g]
	if !ok {
		st = &objState{owner: -1, loc: model.LocationNone, container: model.NoTag}
		m.states[g] = st
	}
	return st
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
		emitted := e.Vs
		if e.Kind == event.EndLocation || e.Kind == event.EndContainment {
			emitted = e.Ve
		}
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
		m.apply(zone, e)
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
		st := m.states[g]
		m.emit(event.NewEndContainment(g, st.container, st.contVs, m.lastTime))
		st.contOpen = false
	}
}

// conflicts returns, sorted, the objects whose open containment
// contradicts their container's location. The previous barrier closed
// every contradiction, and clearing its claims only turns locations
// unknown, so a new contradiction needs an event applied since to one of
// its two ends: it is a touched object, or an open-containment child of
// a touched container.
func (m *Merger) conflicts() []model.Tag {
	slices.Sort(m.touched)
	m.touched = slices.Compact(m.touched)
	var objs []model.Tag
	for _, g := range m.touched {
		if m.conflicted(g, m.states[g]) {
			objs = append(objs, g)
		}
		kids := m.children[g][:0]
		for _, c := range m.children[g] {
			st := m.states[c]
			if !st.contOpen || st.container != g || slices.Contains(kids, c) {
				continue // stale or repeated entry
			}
			kids = append(kids, c)
			if m.conflicted(c, st) {
				objs = append(objs, c)
			}
		}
		if len(kids) == 0 {
			delete(m.children, g)
		} else {
			m.children[g] = kids
		}
	}
	slices.Sort(objs)
	return slices.Compact(objs)
}

// conflicted reports whether g's open containment contradicts its
// container's location.
func (m *Merger) conflicted(g model.Tag, st *objState) bool {
	if !st.contOpen {
		return false
	}
	childLoc, childKnown := m.effectiveLoc(g, st)
	if !childKnown {
		return false
	}
	parent, ok := m.states[st.container]
	if !ok {
		return false
	}
	parentLoc, parentKnown := m.effectiveLoc(st.container, parent)
	return parentKnown && parentLoc != childLoc
}

// effectiveLoc is the object's location as of this epoch's barrier: the
// location it asserted this epoch (even if the interval closed again),
// else its open interval's location, else unknown.
func (m *Merger) effectiveLoc(g model.Tag, st *objState) (model.LocationID, bool) {
	if l, ok := m.claims[g]; ok {
		return l, true
	}
	if st.locOpen {
		return st.loc, true
	}
	return model.LocationNone, false
}

// flushPending resolves deferred Missing messages against the post-batch
// state, appending forwarded alarms to m.out.
func (m *Merger) flushPending() {
	for _, p := range m.pending {
		st := m.state(p.obj)
		if st.locOpen || st.missing {
			continue // picked up by another zone, or already alarmed
		}
		st.missing = true
		m.emit(event.NewMissing(p.obj, p.from, p.at))
	}
	m.pending = m.pending[:0]
}

func (m *Merger) apply(zone ZoneID, e event.Event) {
	st := m.state(e.Object)
	m.touched = append(m.touched, e.Object)
	switch e.Kind {
	case event.StartLocation:
		// The reporting zone takes ownership; close any stale interval
		// from the previous owner at the handoff epoch. A same-epoch
		// handoff (e.Vs == st.locVs) clamps the stale interval to the
		// single-epoch interval [Vs, Vs] — suppressing the End instead
		// would orphan the already-emitted Start.
		if st.locOpen {
			if st.owner == zone && st.loc == e.Location {
				return // duplicate of the already-open interval
			}
			m.emit(event.NewEndLocation(e.Object, st.loc, st.locVs, e.Vs))
		}
		st.owner = zone
		st.locOpen = true
		st.loc = e.Location
		st.locVs = e.Vs
		st.missing = false
		m.claims[e.Object] = e.Location
		m.emit(event.NewStartLocation(e.Object, e.Location, e.Vs))
	case event.EndLocation:
		if st.owner != zone || !st.locOpen || st.loc != e.Location {
			return // stale view from a zone that lost the object
		}
		st.locOpen = false
		m.claims[e.Object] = e.Location
		m.emit(event.NewEndLocation(e.Object, e.Location, st.locVs, e.Ve))
	case event.Missing:
		if st.owner != zone && st.owner != -1 {
			return // only the owner may declare the object missing
		}
		// First reporter of an unclaimed object becomes its owner, so
		// later duplicate alarms from other zones drop.
		st.owner = zone
		if st.locOpen {
			m.emit(event.NewEndLocation(e.Object, st.loc, st.locVs, e.Vs))
			st.locOpen = false
		}
		// Defer the alarm to the epoch barrier: another zone may claim
		// the object later in this same epoch, which retracts it.
		m.pending = append(m.pending, pendingMissing{obj: e.Object, from: e.Location, at: e.Vs})
	case event.StartContainment:
		if st.contOpen && st.container == e.Container {
			// Same containment re-observed from a (possibly different)
			// zone: nothing new to report, but the reporter is now the
			// most recent observer and takes ownership.
			st.owner = zone
			return
		}
		if st.contOpen {
			m.emit(event.NewEndContainment(e.Object, st.container, st.contVs, e.Vs))
		}
		st.owner = zone
		st.contOpen = true
		st.container = e.Container
		st.contVs = e.Vs
		m.children[e.Container] = append(m.children[e.Container], e.Object)
		m.emit(event.NewStartContainment(e.Object, e.Container, e.Vs))
	case event.EndContainment:
		if st.owner != zone || !st.contOpen || st.container != e.Container {
			return // stale view from a zone that lost the object
		}
		st.contOpen = false
		m.emit(event.NewEndContainment(e.Object, e.Container, st.contVs, e.Ve))
	}
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
	tags := make([]model.Tag, 0, len(m.states))
	for g := range m.states {
		tags = append(tags, g)
	}
	slices.Sort(tags)
	for _, g := range tags {
		st := m.states[g]
		if st.contOpen {
			m.emit(event.NewEndContainment(g, st.container, st.contVs, now))
			st.contOpen = false
		}
		if st.locOpen {
			m.emit(event.NewEndLocation(g, st.loc, st.locVs, now))
			st.locOpen = false
		}
	}
}

// Objects reports the number of objects the merger has seen.
func (m *Merger) Objects() int { return len(m.states) }

// NewParallelMerger returns NewMerger().
//
// Deprecated: kept only for benchmark/cluster.go, which times the
// coordinator's merger through it; use NewMerger.
func NewParallelMerger(int) *Merger { return NewMerger() }
