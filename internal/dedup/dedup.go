// Package dedup implements the low-level device data cleaning SPIRE
// requires (paper Section II): deduplication of readings caused by
// overlapping reader ranges. At each epoch it detects tags read by several
// nearby readers and assigns each tag to the reader that read the tag most
// recently; within a single epoch, ties are broken toward the reader that
// has read the tag most recently in the past — provided that history is
// recent enough to still be evidence — then toward the lower reader ID for
// determinism.
//
// CleanBatch, over the columnar model.Batch, is the only resolver; it runs
// on the caller's goroutine. Per-tag state lives in a dense directory: one
// tag → slot map, looked up once per reading, whose slots hold the tag's
// history, the running epoch's occurrence list and the retired bit the
// substrate's exit policy sets (Retire). Freed slots are reused from a
// free list; snapshot encoding sorts tags, so persisted bytes do not
// depend on the slot layout.
package dedup

import (
	"slices"

	"spire/internal/model"
)

// Staleness is the recency window for the cross-epoch
// tie-break: a reader's past claim on a tag counts only if it read the tag
// within this many epochs. At the paper's one-second epochs this is five
// minutes — long enough to ride out dropout bursts, short enough that a
// reader which saw the tag in some earlier era of the trace does not keep
// winning ties against a currently co-reading reader forever.
const Staleness model.Epoch = 300

// slot is one tag's directory entry, live while the tag has history or
// is retired. stamp is the CleanBatch pass that last read the tag; head
// and tail are that pass's first and last positions of it, linked through
// occurrence.next.
type slot struct {
	tag        model.Tag
	at         model.Epoch // epoch of the last assignment (valid when hist)
	stamp      uint64
	reader     model.ReaderID // reader of the last assignment (valid when hist)
	head, tail int32
	hist       bool // the tag has recorded history
	retired    bool // the tag left through an exit (see Retire)
}

// occurrence is one position of the batch being cleaned: its reader, the
// next position of the same tag (-1 at the end), the verdict and the
// tag's slot. After compaction occ[p].slot is the slot of the tag kept at
// position p.
type occurrence struct {
	reader model.ReaderID
	next   int32
	slot   uint32
	keep   bool
}

// Deduplicator tracks per-tag reading history across epochs. It is not
// safe for concurrent use.
type Deduplicator struct {
	dir     map[model.Tag]uint32
	slots   []slot
	free    []uint32
	tracked int // slots with history

	// stamp numbers CleanBatch passes; occ is the per-position scratch and
	// touched the slots the running pass read, in first-appearance order.
	stamp   uint64
	occ     []occurrence
	touched []uint32

	// ins are the optional telemetry instruments (nil when disabled); see
	// telemetry.go.
	ins *Instruments
}

// New creates an empty Deduplicator.
func New() *Deduplicator { return &Deduplicator{dir: make(map[model.Tag]uint32)} }

// slotOf returns g's slot, taking one from the free list (or growing the
// directory) when g has none.
func (d *Deduplicator) slotOf(g model.Tag) uint32 {
	if s, ok := d.dir[g]; ok {
		return s
	}
	var s uint32
	if n := len(d.free); n > 0 {
		s = d.free[n-1]
		d.free = d.free[:n-1]
		d.slots[s] = slot{tag: g}
	} else {
		s = uint32(len(d.slots))
		d.slots = append(d.slots, slot{tag: g})
	}
	d.dir[g] = s
	return s
}

// CleanBatch resolves duplicates in one epoch's columnar batch in place,
// compacting the tag column and group offsets so each tag is retained by
// exactly one reader. The differential suite pins the resolved batch, the
// history left behind, and the telemetry counters against a test-only
// map-per-epoch oracle.
func (d *Deduplicator) CleanBatch(b *model.Batch) *model.Batch {
	d.stamp++
	if cap(d.occ) < len(b.Tags) {
		d.occ = make([]occurrence, len(b.Tags))
	}
	d.occ = d.occ[:len(b.Tags)]

	// Pass 1: link each tag's occurrences in group order. Groups are
	// ascending by reader, so each list is already sorted by reader — the
	// lowest-ID tie-break falls out of the head.
	for i := range b.Groups {
		g := b.Groups[i]
		for p := g.Start; p < g.End; p++ {
			s := d.slotOf(b.Tags[p])
			sl := &d.slots[s]
			if sl.stamp != d.stamp {
				sl.stamp, sl.head = d.stamp, p
				d.touched = append(d.touched, s)
			} else {
				d.occ[sl.tail].next = p
			}
			sl.tail = p
			d.occ[p] = occurrence{reader: g.Reader, next: -1, slot: s}
		}
	}

	// Pass 2: per tag, decide the winner, mark keeps, and record the
	// assignment as the tag's new history.
	var dups, reassigns int64
	for _, s := range d.touched {
		sl := &d.slots[s]
		winner := d.occ[sl.head].reader
		if sl.head == sl.tail {
			d.occ[sl.head].keep = true
		} else {
			dups++
			// History decides a tie only while it is fresh.
			if sl.hist && b.Time-sl.at <= Staleness {
				for p := sl.head; p >= 0; p = d.occ[p].next {
					if d.occ[p].reader == sl.reader {
						winner = sl.reader
						break
					}
				}
			}
			if sl.hist && sl.reader != winner {
				reassigns++
			}
			marked := false
			for p := sl.head; p >= 0; p = d.occ[p].next {
				k := !marked && d.occ[p].reader == winner
				marked = marked || k
				d.occ[p].keep = k
			}
		}
		if !sl.hist {
			sl.hist = true
			d.tracked++
		}
		sl.reader, sl.at = winner, b.Time
	}
	d.touched = d.touched[:0]

	// Compaction: squeeze out dropped positions, fixing group offsets in
	// place. Empty groups are kept — an active reader that read nothing is
	// still information for the caller.
	w := int32(0)
	for i := range b.Groups {
		g := &b.Groups[i]
		start := w
		for p := g.Start; p < g.End; p++ {
			if oc := d.occ[p]; oc.keep {
				b.Tags[w] = b.Tags[p]
				d.occ[w].slot = oc.slot
				w++
			}
		}
		g.Start, g.End = start, w
	}
	b.Tags = b.Tags[:w]
	d.occ = d.occ[:w]

	if d.ins != nil {
		d.ins.Duplicates.Add(dups)
		d.ins.Reassignments.Add(reassigns)
		d.ins.Tracked.Set(int64(d.tracked))
	}
	return b
}

// Forget drops a tag's history (e.g. after the object exits the world).
// A retired tag keeps its mark.
func (d *Deduplicator) Forget(g model.Tag) {
	if s, ok := d.dir[g]; ok {
		d.forget(s)
	}
}

// forget drops slot s's history and frees the slot unless it is retired.
func (d *Deduplicator) forget(s uint32) {
	sl := &d.slots[s]
	if sl.hist {
		sl.hist = false
		d.tracked--
	}
	if !sl.retired {
		delete(d.dir, sl.tag)
		d.free = append(d.free, s)
	}
}

// Retire forgets a tag and marks it retired. The mark only carries the
// substrate's exit policy: CleanBatch resolves a retired tag's readings
// as any other's, and the caller reads the mark of each kept reading with
// RetiredAt.
func (d *Deduplicator) Retire(g model.Tag) {
	s := d.slotOf(g)
	d.slots[s].retired = true
	d.forget(s)
}

// RetiredAt reports whether the tag kept at position p of the batch last
// cleaned is retired.
func (d *Deduplicator) RetiredAt(p int32) bool { return d.slots[d.occ[p].slot].retired }

// ResurrectAt clears the retired mark of the tag kept at position p of the
// batch last cleaned.
func (d *Deduplicator) ResurrectAt(p int32) { d.slots[d.occ[p].slot].retired = false }

// Retired returns the retired tags in ascending order.
func (d *Deduplicator) Retired() []model.Tag {
	var tags []model.Tag
	for i := range d.slots {
		if d.slots[i].retired {
			tags = append(tags, d.slots[i].tag)
		}
	}
	slices.Sort(tags)
	return tags
}

// Len reports the number of tags with recorded history.
func (d *Deduplicator) Len() int { return d.tracked }
