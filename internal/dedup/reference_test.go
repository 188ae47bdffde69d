package dedup

import (
	"slices"
	"sort"

	"spire/internal/model"
)

// rows is one epoch's readings as a reader → tags map: the shape the
// reference resolver and the per-reader cases are written in.
type rows struct {
	Time     model.Epoch
	ByReader map[model.ReaderID][]model.Tag
}

func newRows(t model.Epoch) *rows {
	return &rows{Time: t, ByReader: make(map[model.ReaderID][]model.Tag)}
}

// Add records that reader r read tag g.
func (o *rows) Add(r model.ReaderID, g model.Tag) {
	o.ByReader[r] = append(o.ByReader[r], g)
}

// Total returns the number of readings.
func (o *rows) Total() int {
	n := 0
	for _, tags := range o.ByReader {
		n += len(tags)
	}
	return n
}

// Clone returns a deep copy.
func (o *rows) Clone() *rows {
	c := newRows(o.Time)
	for r, tags := range o.ByReader {
		c.ByReader[r] = slices.Clone(tags)
	}
	return c
}

// batch writes o into b, groups ascending by reader.
func (o *rows) batch(b *model.Batch) *model.Batch {
	readers := make([]model.ReaderID, 0, len(o.ByReader))
	for r := range o.ByReader {
		readers = append(readers, r)
	}
	slices.Sort(readers)
	b.Reset(o.Time)
	for _, r := range readers {
		b.AppendGroup(r, o.ByReader[r])
	}
	return b
}

// rowsOf copies b into rows; an empty group becomes an empty entry.
func rowsOf(b *model.Batch) *rows {
	o := newRows(b.Time)
	for i, g := range b.Groups {
		o.ByReader[g.Reader] = append([]model.Tag{}, b.GroupTags(i)...)
	}
	return o
}

// history returns the recorded (reader, at) for tag g, if any.
func (d *Deduplicator) history(g model.Tag) (model.ReaderID, model.Epoch, bool) {
	sh := &d.shards[shardOf(g)]
	r, ok := sh.lastReader[g]
	if !ok {
		return 0, 0, false
	}
	return r, sh.lastAt[g], true
}

// record stores the assignment of tag g to reader r at epoch now.
func (d *Deduplicator) record(g model.Tag, r model.ReaderID, now model.Epoch) {
	sh := &d.shards[shardOf(g)]
	sh.lastReader[g] = r
	sh.lastAt[g] = now
}

// fresh reports whether the recorded history for tag g is recent enough at
// epoch now to decide a tie.
func (d *Deduplicator) fresh(g model.Tag, now model.Epoch) bool {
	if d.staleness < 0 {
		return true
	}
	at, ok := d.shards[shardOf(g)].lastAt[g]
	return ok && now-at <= d.staleness
}

// CleanReference resolves duplicates in one epoch's rows in place,
// allocating its working maps per call. It is the original implementation,
// retained verbatim as the oracle that pins CleanBatch via differential
// tests.
func (d *Deduplicator) CleanReference(o *rows) *rows {
	// Collect the readers that saw each tag this epoch.
	readersOf := make(map[model.Tag][]model.ReaderID)
	for r, tags := range o.ByReader {
		for _, g := range tags {
			readersOf[g] = append(readersOf[g], r)
		}
	}
	assigned := make(map[model.Tag]model.ReaderID, len(readersOf))
	for g, readers := range readersOf {
		if len(readers) == 1 {
			assigned[g] = readers[0]
			continue
		}
		if d.ins != nil {
			d.ins.Duplicates.Inc()
		}
		sort.Slice(readers, func(i, j int) bool { return readers[i] < readers[j] })
		best := readers[0]
		if last, _, ok := d.history(g); ok && d.fresh(g, o.Time) {
			for _, r := range readers {
				if r == last {
					// The tag sticks with the reader it was most recently
					// assigned to — the paper's "read the tag most
					// recently" rule applied across epochs. History too old
					// to be evidence of current proximity is skipped above.
					best = r
					break
				}
			}
		}
		assigned[g] = best
	}
	// Rebuild the per-reader sets, dropping duplicates. Empty sets are
	// kept: an active reader that read nothing is still information for
	// the caller.
	for r, tags := range o.ByReader {
		kept := tags[:0]
		seen := make(map[model.Tag]bool, len(tags))
		for _, g := range tags {
			if assigned[g] == r && !seen[g] {
				kept = append(kept, g)
				seen[g] = true
			}
		}
		o.ByReader[r] = kept
	}
	for g, r := range assigned {
		if d.ins != nil {
			if last, _, ok := d.history(g); ok && last != r && len(readersOf[g]) > 1 {
				d.ins.Reassignments.Inc()
			}
		}
		d.record(g, r, o.Time)
	}
	if d.ins != nil {
		d.ins.Tracked.Set(int64(d.Len()))
	}
	return o
}
