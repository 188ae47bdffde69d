package compress

import (
	"sort"

	"spire/internal/checkpoint"
	"spire/internal/model"
)

// Snapshot serialization of the compressors' open-interval state. The
// per-object objState is the complete memory of both levels: the open
// location pair, the reported containment pair, the last known (virtual)
// location, and the missing latch. Without it a restored pipeline would
// re-emit Start events for intervals that are already open in the
// downstream stream, breaking well-formedness. States are written in tag
// order for byte-stable output.

const (
	sectionLevel1 = "CMP1"
	sectionLevel2 = "CMP2"
)

// stateEncSize is the smallest encoded size of one objState entry, used
// to validate the count before allocating.
const stateEncSize = 9

// EncodeState appends the compressor's open-interval state to e, under
// the section tag of its level.
func (c *Level1) EncodeState(e *checkpoint.Encoder) {
	e.Section(c.section)
	tags := make([]model.Tag, 0, len(c.states))
	for t := range c.states {
		tags = append(tags, t)
	}
	sort.Slice(tags, func(i, j int) bool { return tags[i] < tags[j] })
	e.Uvarint(uint64(len(tags)))
	prev := model.NoTag
	for _, t := range tags {
		st := c.states[t]
		e.Tag(prev, t)
		prev = t
		e.Uint8(uint8(st.level))
		e.Varint(int64(st.loc))
		e.Bool(st.locOpen)
		e.Epoch(st.locVs)
		e.Varint(int64(st.lastKnown))
		e.Uvarint(uint64(st.parent))
		e.Epoch(st.parentVs)
		e.Bool(st.missing)
	}
}

// DecodeLevel1 reconstructs a level-1 compressor from d. levelOf is
// configuration and comes from the caller, as in NewLevel1.
func DecodeLevel1(d *checkpoint.Decoder, levelOf LevelFunc) (*Level1, error) {
	return decodeLevel(d, sectionLevel1, levelOf)
}

// DecodeLevel2 reconstructs a level-2 compressor from d.
func DecodeLevel2(d *checkpoint.Decoder, levelOf LevelFunc) (*Level2, error) {
	c, err := decodeLevel(d, sectionLevel2, levelOf)
	if err != nil {
		return nil, err
	}
	return &Level2{*c}, nil
}

func decodeLevel(d *checkpoint.Decoder, section string, levelOf LevelFunc) (*Level1, error) {
	d.Section(section)
	n := d.Count(stateEncSize)
	states := make(map[model.Tag]*objState, n)
	var open opens
	t := model.NoTag
	for i := 0; i < n; i++ {
		t = d.Tag(t)
		st := &objState{
			level:     model.Level(d.Uint8()),
			loc:       model.LocationID(d.Varint()),
			locOpen:   d.Bool(),
			locVs:     d.Epoch(),
			lastKnown: model.LocationID(d.Varint()),
			parent:    model.Tag(d.Uvarint()),
			parentVs:  d.Epoch(),
			missing:   d.Bool(),
		}
		if d.Err() != nil {
			return nil, d.Err()
		}
		states[t] = st
		if st.locOpen {
			open.locs++
		}
		if st.parent != model.NoTag {
			open.conts++
		}
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	return &Level1{levelOf: levelOf, states: states, open: open, section: section}, nil
}
