package event

import (
	"cmp"
	"slices"
)

// canonRank orders the kinds within one emission instant: closes of older
// intervals first, then opens, then alarms — the order a single
// compressor's epoch naturally has for independent objects.
func canonRank(e Event) int {
	switch e.Kind {
	case EndContainment:
		return 0
	case StartContainment:
		return 1
	case EndLocation:
		return 2
	case StartLocation:
		return 3
	default: // Missing
		return 4
	}
}

// CanonicalSort stable-sorts a stream into a canonical normal form:
// by emission time, then object, then kind (closes before opens before
// alarms), then payload. Two well-formed streams describing the same
// interpreted history — e.g. a federated merge driven with zones in a
// different order or partitioned into a different zone count — compare
// equal after CanonicalSort even when their emission interleavings
// differ.
//
// The normal form is for comparison, not emission: within one instant it
// may order another object's open before this object's zero-length
// close, so the sorted stream is not guaranteed to pass CheckWellFormed.
// Check well-formedness on the raw stream, equality on the canonical one.
func CanonicalSort(events []Event) {
	slices.SortStableFunc(events, func(a, b Event) int {
		if c := cmp.Compare(a.Emitted(), b.Emitted()); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Object, b.Object); c != 0 {
			return c
		}
		if c := cmp.Compare(canonRank(a), canonRank(b)); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Location, b.Location); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Container, b.Container); c != 0 {
			return c
		}
		return cmp.Compare(a.Vs, b.Vs)
	})
}
