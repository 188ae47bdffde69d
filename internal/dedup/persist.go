package dedup

import (
	"cmp"
	"slices"

	"spire/internal/checkpoint"
	"spire/internal/model"
)

// Snapshot serialization of the deduplication directory: the retired
// marks (the substrate's exit tombstones), then every tracked tag's sticky
// reader and the epoch it was last assigned. Both lists are written in tag
// order, each tag as its step from the one before, for byte-stable,
// compact output.

const sectionDedup = "DDUP"

// entryEncSize is the smallest encoded size of one history entry (tag,
// reader, epoch), used to validate the count before allocating.
const entryEncSize = 3

// EncodeState appends the retired marks and the history to e.
func (d *Deduplicator) EncodeState(e *checkpoint.Encoder) {
	e.Section(sectionDedup)
	retired := d.Retired()
	live := make([]uint32, 0, d.tracked)
	for s := range d.slots {
		if d.slots[s].hist {
			live = append(live, uint32(s))
		}
	}
	slices.SortFunc(live, func(a, b uint32) int { return cmp.Compare(d.slots[a].tag, d.slots[b].tag) })
	e.Uvarint(uint64(len(retired)))
	e.Uvarint(uint64(len(live)))
	prev := model.NoTag
	for _, g := range retired {
		e.Tag(prev, g)
		prev = g
	}
	prev = model.NoTag
	for _, s := range live {
		sl := &d.slots[s]
		e.Tag(prev, sl.tag)
		prev = sl.tag
		e.Varint(int64(sl.reader))
		e.Epoch(sl.at)
	}
}

// DecodeState restores the retired marks and the history from dec into a
// fresh Deduplicator, sizing its directory once for both.
func (d *Deduplicator) DecodeState(dec *checkpoint.Decoder) error {
	dec.Section(sectionDedup)
	nr, n := dec.Count(1), dec.Count(entryEncSize)
	d.dir = make(map[model.Tag]uint32, nr+n)
	d.slots = make([]slot, 0, nr+n)
	g := model.NoTag
	for i := 0; i < nr; i++ {
		if g = dec.Tag(g); dec.Err() != nil {
			return dec.Err()
		}
		d.Retire(g)
	}
	g = model.NoTag
	for i := 0; i < n; i++ {
		g = dec.Tag(g)
		r := model.ReaderID(dec.Varint())
		at := dec.Epoch()
		if dec.Err() != nil {
			return dec.Err()
		}
		sl := &d.slots[d.slotOf(g)]
		sl.hist, sl.reader, sl.at = true, r, at
		d.tracked++
	}
	return dec.Err()
}
