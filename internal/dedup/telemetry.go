package dedup

import "spire/internal/telemetry"

// Instruments are the deduplicator's runtime-telemetry metrics. A nil
// *Instruments records nothing, so an uninstrumented deduplicator pays a
// single nil check per epoch.
type Instruments struct {
	// Duplicates counts tag readings that had to be resolved because more
	// than one reader reported the tag in the same epoch.
	Duplicates *telemetry.Counter
	// Reassignments counts duplicate resolutions that moved a tag away
	// from the reader it was last assigned to — the decisions where the
	// tie-break history actually changed the outcome.
	Reassignments *telemetry.Counter
	// Tracked is the number of tags with recorded reading history.
	Tracked *telemetry.Gauge
	// Shards is the fixed tag-hash shard count of the history store
	// (NumShards). Constant per process.
	Shards *telemetry.Gauge
}

// NewInstruments registers the dedup metrics on reg. Returns nil when reg
// is nil.
func NewInstruments(reg *telemetry.Registry) *Instruments {
	if reg == nil {
		return nil
	}
	return &Instruments{
		Duplicates: reg.Counter("spire_dedup_duplicates_total",
			"Tags read by more than one reader in an epoch."),
		Reassignments: reg.Counter("spire_dedup_reassignments_total",
			"Duplicate resolutions that moved a tag to a different reader than its last assignment."),
		Tracked: reg.Gauge("spire_dedup_tracked_tags",
			"Tags with recorded reading history."),
		Shards: reg.Gauge("spire_dedup_shards",
			"Fixed tag-hash shard count of the dedup history store."),
	}
}

// Instrument attaches ins to the deduplicator; pass nil to detach.
// Instrumentation only observes the existing decisions — it can never
// change which reader wins a tag.
func (d *Deduplicator) Instrument(ins *Instruments) {
	d.ins = ins
	if ins != nil {
		ins.Shards.Set(NumShards)
	}
}
