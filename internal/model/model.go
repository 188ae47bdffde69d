// Package model defines the vocabulary of the SPIRE system: RFID tags,
// packaging levels, locations, epochs, readings, and the state of the
// physical world (the "ground truth" of the paper's Section II).
//
// All other packages are written in terms of these types. The model is
// deliberately small and allocation-free where possible: a Tag is a 64-bit
// EPC-style identifier, a LocationID is a small integer index into a
// Location table, and an Epoch is a discrete timestamp.
package model

import "fmt"

// Tag identifies an RFID-tagged object. The packaging level is encoded in
// the tag itself (see package epc), mirroring the EPCglobal tag data
// standard the paper relies on for arranging graph layers.
type Tag uint64

// NoTag is the zero Tag; it never identifies a real object.
const NoTag Tag = 0

// Level is the packaging level of an object in a supply-chain environment.
// The EPC standard requires every object to carry one of these levels in
// its tag ID; SPIRE's graph is layered by level.
type Level uint8

// Packaging levels, ordered from innermost to outermost.
const (
	LevelItem Level = iota
	LevelCase
	LevelPallet
	numLevels
)

// NumLevels is the number of packaging levels in the supply-chain model.
const NumLevels = int(numLevels)

// String returns the conventional name of the level.
func (l Level) String() string {
	switch l {
	case LevelItem:
		return "item"
	case LevelCase:
		return "case"
	case LevelPallet:
		return "pallet"
	default:
		return fmt.Sprintf("level(%d)", uint8(l))
	}
}

// Valid reports whether l is one of the defined packaging levels.
func (l Level) Valid() bool { return l < numLevels }

// LocationID identifies one of the pre-defined fixed locations of the
// physical world, or one of the two sentinel locations below. In the graph
// model a LocationID doubles as a node color.
type LocationID int32

const (
	// LocationUnknown is the special "unknown" location of the paper: an
	// object is here when it is in transit between readers or has left the
	// world improperly (e.g. was stolen). As a node color it means
	// "uncolored with no estimate".
	LocationUnknown LocationID = -1

	// LocationNone marks a node that currently has no color at all (not
	// even a fading recent color). It is distinct from LocationUnknown,
	// which is a positive inference verdict.
	LocationNone LocationID = -2
)

// Known reports whether id names a real, pre-defined location (not one of
// the sentinels).
func (id LocationID) Known() bool { return id >= 0 }

// String renders the id; real locations print their index.
func (id LocationID) String() string {
	switch id {
	case LocationUnknown:
		return "unknown"
	case LocationNone:
		return "none"
	default:
		return fmt.Sprintf("L%d", int32(id))
	}
}

// Location describes one fixed, pre-defined location of the physical world
// (e.g. "aisle 1 in warehouse A", or a conveyor belt under a reader).
type Location struct {
	ID   LocationID
	Name string
	// Exit marks a designated exit channel: objects read here are about to
	// leave the physical world properly, so the substrate may retire their
	// graph nodes after inference.
	Exit bool
}

// Epoch is a discrete time instant. The paper divides time into epochs
// (1 second each in the evaluation) and updates the graph once per epoch.
type Epoch int64

// EpochNone marks "never" (e.g. a node that has not been seen yet).
const EpochNone Epoch = -1

// InfiniteEpoch is used as the open end V_e = ∞ of a validity interval.
const InfiniteEpoch Epoch = 1<<62 - 1

// ReaderID identifies an RFID reader mounted at a fixed location.
type ReaderID int32

// Reader describes a fixed RFID reader.
type Reader struct {
	ID       ReaderID
	Location LocationID
	// Period is the read frequency: the reader interrogates every Period
	// epochs (Period 1 = every epoch). The partial/complete inference
	// schedule is derived from the LCM of all reader periods.
	Period Epoch
	// ReadRate is the per-object probability that an object within range
	// responds to an interrogation (the paper sweeps 0.5–1.0).
	ReadRate float64
	// Confirming marks a "special reader" (e.g. a conveyor-belt reader)
	// that scans containers of a particular type one at a time, and can
	// therefore confirm top-level containers and their contents.
	Confirming bool
	// ConfirmLevel is the packaging level of the container type this
	// special reader scans one at a time (cases for a receiving belt,
	// pallets for a shipping belt). Only meaningful when Confirming.
	ConfirmLevel Level
}

// Active reports whether the reader interrogates during the given epoch.
func (r *Reader) Active(t Epoch) bool {
	if r.Period <= 1 {
		return true
	}
	return t%r.Period == 0
}

// Reading is the basic RFID datum: a <tag id, reader id, timestamp>
// triplet.
type Reading struct {
	Tag    Tag
	Reader ReaderID
	Time   Epoch
}
