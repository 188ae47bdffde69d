package dedup

import (
	"cmp"
	"fmt"
	"slices"

	"spire/internal/checkpoint"
	"spire/internal/model"
)

// Snapshot serialization of the deduplication history. Every tracked tag
// carries its sticky reader and the epoch it was last assigned; entries
// are written in tag order for byte-stable output.

const sectionDedup = "DDUP"

// entryEncSize is the encoded size of one history entry (tag + reader +
// epoch), used to validate the count before allocating.
const entryEncSize = 8 + 8 + 8

// EncodeState appends the dedup history to e, in tag order.
func (d *Deduplicator) EncodeState(e *checkpoint.Encoder) {
	e.Section(sectionDedup)
	live := make([]uint32, 0, d.tracked)
	for s := range d.slots {
		if d.slots[s].hist {
			live = append(live, uint32(s))
		}
	}
	slices.SortFunc(live, func(a, b uint32) int { return cmp.Compare(d.slots[a].tag, d.slots[b].tag) })
	e.Uint64(uint64(len(live)))
	for _, s := range live {
		sl := &d.slots[s]
		e.Uint64(uint64(sl.tag))
		e.Int64(int64(sl.reader))
		e.Int64(int64(sl.at))
	}
}

// DecodeState fills the history of a Deduplicator that has none from dec;
// retired marks may already be set.
func (d *Deduplicator) DecodeState(dec *checkpoint.Decoder) error {
	dec.Section(sectionDedup)
	n := dec.Count(entryEncSize)
	for i := 0; i < n; i++ {
		g := model.Tag(dec.Uint64())
		r := model.ReaderID(dec.Int64())
		at := model.Epoch(dec.Int64())
		if dec.Err() != nil {
			return dec.Err()
		}
		if g == model.NoTag {
			return fmt.Errorf("%w: dedup entry %d has zero tag", checkpoint.ErrCorrupt, i)
		}
		sl := &d.slots[d.slotOf(g)]
		if sl.hist {
			return fmt.Errorf("%w: duplicate dedup entry for tag %d", checkpoint.ErrCorrupt, g)
		}
		sl.hist, sl.reader, sl.at = true, r, at
		d.tracked++
	}
	return dec.Err()
}
