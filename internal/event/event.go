// Package event defines the compressed output event stream of SPIRE.
//
// The output module (paper Section V) represents interpreted stream data
// using five messages, each carrying a validity interval [Vs, Ve]:
//
//	StartLocation(object, location, Vs, Ve=∞)
//	EndLocation(object, location, Vs, Ve)
//	StartContainment(object, container, Vs, Ve=∞)
//	EndContainment(object, container, Vs, Ve)
//	Missing(object, locationMissingFrom, Vs, Ve=Vs)
//
// Start/end messages occur in pairs bracketing the period an object is at a
// location (or inside a container); Missing messages are singletons emitted
// right after the EndLocation for the object's previous location. A stream
// is well-formed when every start has a matching end and missing messages
// appear outside any open location pair; package event provides a checker
// for that property (used heavily in tests) plus a byte-accurate binary
// codec so compression ratios can be measured against the raw input.
package event

import (
	"fmt"

	"spire/internal/model"
)

// Kind discriminates the five output messages.
type Kind uint8

// The five message kinds of the compressed stream format.
const (
	StartLocation Kind = iota + 1
	EndLocation
	StartContainment
	EndContainment
	Missing
	numKinds
)

// String names the kind as in the paper.
func (k Kind) String() string {
	switch k {
	case StartLocation:
		return "StartLocation"
	case EndLocation:
		return "EndLocation"
	case StartContainment:
		return "StartContainment"
	case EndContainment:
		return "EndContainment"
	case Missing:
		return "Missing"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Valid reports whether k is one of the five defined kinds.
func (k Kind) Valid() bool { return k >= StartLocation && k < numKinds }

// Location reports whether the kind concerns a location (including
// Missing, whose payload is the location the object vanished from).
func (k Kind) Location() bool {
	return k == StartLocation || k == EndLocation || k == Missing
}

// Containment reports whether the kind concerns containment.
func (k Kind) Containment() bool {
	return k == StartContainment || k == EndContainment
}

// Event is one message of the compressed output stream.
type Event struct {
	Kind   Kind
	Object model.Tag
	// Location is set for StartLocation/EndLocation/Missing.
	Location model.LocationID
	// Container is set for StartContainment/EndContainment.
	Container model.Tag
	// Vs and Ve bound the validity interval. Start messages carry
	// Ve = model.InfiniteEpoch; Missing messages carry Ve = Vs.
	Vs, Ve model.Epoch
}

// String renders the event in the paper's message notation.
func (e Event) String() string {
	ve := fmt.Sprintf("%d", e.Ve)
	if e.Ve == model.InfiniteEpoch {
		ve = "inf"
	}
	switch {
	case e.Kind.Location():
		return fmt.Sprintf("%s(%d, %v, %d, %s)", e.Kind, e.Object, e.Location, e.Vs, ve)
	case e.Kind.Containment():
		return fmt.Sprintf("%s(%d, %d, %d, %s)", e.Kind, e.Object, e.Container, e.Vs, ve)
	default:
		return fmt.Sprintf("%s(%d, %d, %s)", e.Kind, e.Vs, e.Vs, ve)
	}
}

// Emitted is the epoch the event is emitted at: Ve for end messages (the
// interval closes then), Vs for starts and alarms.
func (e Event) Emitted() model.Epoch {
	if e.Kind == EndLocation || e.Kind == EndContainment {
		return e.Ve
	}
	return e.Vs
}

// NewStartLocation builds a StartLocation message opening at vs.
func NewStartLocation(obj model.Tag, loc model.LocationID, vs model.Epoch) Event {
	return Event{Kind: StartLocation, Object: obj, Location: loc, Vs: vs, Ve: model.InfiniteEpoch}
}

// NewEndLocation builds the EndLocation closing a pair opened at vs.
func NewEndLocation(obj model.Tag, loc model.LocationID, vs, ve model.Epoch) Event {
	return Event{Kind: EndLocation, Object: obj, Location: loc, Vs: vs, Ve: ve}
}

// NewStartContainment builds a StartContainment message opening at vs.
func NewStartContainment(obj, container model.Tag, vs model.Epoch) Event {
	return Event{Kind: StartContainment, Object: obj, Container: container, Vs: vs, Ve: model.InfiniteEpoch}
}

// NewEndContainment builds the EndContainment closing a pair opened at vs.
func NewEndContainment(obj, container model.Tag, vs, ve model.Epoch) Event {
	return Event{Kind: EndContainment, Object: obj, Container: container, Vs: vs, Ve: ve}
}

// NewMissing builds a singleton Missing message at epoch t for an object
// last seen at loc.
func NewMissing(obj model.Tag, loc model.LocationID, t model.Epoch) Event {
	return Event{Kind: Missing, Object: obj, Location: loc, Vs: t, Ve: t}
}

// Validate checks the internal consistency of a single event.
func (e Event) Validate() error {
	if !e.Kind.Valid() {
		return fmt.Errorf("event: invalid kind %d", e.Kind)
	}
	if e.Object == model.NoTag {
		return fmt.Errorf("event: %s has no object", e.Kind)
	}
	switch e.Kind {
	case StartLocation, StartContainment:
		if e.Ve != model.InfiniteEpoch {
			return fmt.Errorf("event: %s must carry Ve=inf, has %d", e.Kind, e.Ve)
		}
	case Missing:
		if e.Ve != e.Vs {
			return fmt.Errorf("event: Missing must carry Ve=Vs, has [%d,%d]", e.Vs, e.Ve)
		}
	default:
		if e.Ve < e.Vs {
			return fmt.Errorf("event: %s interval inverted [%d,%d]", e.Kind, e.Vs, e.Ve)
		}
	}
	if e.Kind.Containment() {
		if e.Container == model.NoTag {
			return fmt.Errorf("event: %s has no container", e.Kind)
		}
		if e.Container == e.Object {
			return fmt.Errorf("event: %s object contains itself", e.Kind)
		}
	}
	return nil
}
