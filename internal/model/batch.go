package model

// Batch is one epoch's readings, grouped per reader: a single flat tags
// column plus a reader-group directory of [Start,End) offsets into it. A
// reader that interrogated but read nothing appears as an empty group.
// The graph update consumes one reader group at a time, which is what
// lets SPIRE tolerate coarsely synchronized readers. Two reused flat
// buffers instead of a map of slices mean the ingest hot path (decode →
// dedup → graph update) touches no per-epoch map allocations and
// iterates readings in index order.
//
// Invariants (checked by Validate):
//
//   - Groups are sorted by strictly ascending ReaderID;
//   - group offsets are non-decreasing, contiguous from 0 to len(Tags).
//
// A Batch is reused across epochs via Reset.
type Batch struct {
	Time Epoch
	// Groups is the per-reader directory, ascending by reader ID.
	Groups []ReaderGroup
	// Tags holds every reading's tag, grouped by reader: the tags read
	// by Groups[i].Reader are Tags[Groups[i].Start:Groups[i].End].
	Tags []Tag
}

// ReaderGroup locates one reader's readings inside the batch's tag
// column. Start == End for a reader that interrogated but read nothing.
type ReaderGroup struct {
	Reader     ReaderID
	Start, End int32
}

// Len returns the number of tags in the group.
func (g ReaderGroup) Len() int { return int(g.End - g.Start) }

// NewBatch returns an empty batch for epoch t.
func NewBatch(t Epoch) *Batch { return &Batch{Time: t} }

// Reset truncates the batch for reuse at epoch t, keeping the underlying
// buffers.
func (b *Batch) Reset(t Epoch) {
	b.Time = t
	b.Groups = b.Groups[:0]
	b.Tags = b.Tags[:0]
}

// BeginReader opens a group for reader r. Callers must open groups in
// ascending reader order (the simulator's readers are already ordered);
// Validate reports violations.
func (b *Batch) BeginReader(r ReaderID) {
	n := int32(len(b.Tags))
	b.Groups = append(b.Groups, ReaderGroup{Reader: r, Start: n, End: n})
}

// Append records one tag for the most recently opened reader group.
func (b *Batch) Append(g Tag) {
	b.Tags = append(b.Tags, g)
	b.Groups[len(b.Groups)-1].End = int32(len(b.Tags))
}

// AppendGroup opens a group for reader r holding a copy of tags.
func (b *Batch) AppendGroup(r ReaderID, tags []Tag) {
	b.BeginReader(r)
	b.Tags = append(b.Tags, tags...)
	b.Groups[len(b.Groups)-1].End = int32(len(b.Tags))
}

// Total returns the number of readings in the batch.
func (b *Batch) Total() int { return len(b.Tags) }

// SizeBytes returns the resident size of the batch's two columns (8-byte
// tags plus 12-byte group directory entries) — the figure behind the
// spire_ingest_batch_bytes telemetry counter.
func (b *Batch) SizeBytes() int64 {
	return int64(len(b.Tags))*8 + int64(len(b.Groups))*12
}

// GroupTags returns the tag column slice of group i. The slice aliases
// the batch; it is valid until the next mutation.
func (b *Batch) GroupTags(i int) []Tag {
	g := b.Groups[i]
	return b.Tags[g.Start:g.End]
}

// Validate checks the batch invariants.
func (b *Batch) Validate() error {
	prev := int32(0)
	for i, g := range b.Groups {
		if i > 0 && b.Groups[i-1].Reader >= g.Reader {
			return &batchError{"reader groups not strictly ascending"}
		}
		if g.Start != prev || g.End < g.Start {
			return &batchError{"group offsets not contiguous"}
		}
		prev = g.End
	}
	if int(prev) != len(b.Tags) {
		return &batchError{"group offsets do not cover the tag column"}
	}
	return nil
}

type batchError struct{ msg string }

func (e *batchError) Error() string { return "model: batch: " + e.msg }

// Clone returns a deep copy of the batch.
func (b *Batch) Clone() *Batch {
	c := &Batch{
		Time:   b.Time,
		Groups: append([]ReaderGroup(nil), b.Groups...),
		Tags:   append([]Tag(nil), b.Tags...),
	}
	return c
}

// Readings flattens the batch into raw readings in ascending reader
// order.
func (b *Batch) Readings() []Reading {
	out := make([]Reading, 0, len(b.Tags))
	for _, g := range b.Groups {
		for _, tag := range b.Tags[g.Start:g.End] {
			out = append(out, Reading{Tag: tag, Reader: g.Reader, Time: b.Time})
		}
	}
	return out
}
