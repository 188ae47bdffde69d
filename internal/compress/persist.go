package compress

import (
	"fmt"
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

// stateEncSize is the encoded size of one objState entry, used to
// validate the count before allocating.
const stateEncSize = 8 + 1 + 8 + 1 + 8 + 8 + 8 + 8 + 1

// EncodeState appends the compressor's open-interval state to e, under
// the section tag of its level.
func (c *Level1) EncodeState(e *checkpoint.Encoder) {
	e.Section(c.section)
	tags := make([]model.Tag, 0, len(c.states))
	for t := range c.states {
		tags = append(tags, t)
	}
	sort.Slice(tags, func(i, j int) bool { return tags[i] < tags[j] })
	e.Uint64(uint64(len(tags)))
	for _, t := range tags {
		st := c.states[t]
		e.Uint64(uint64(t))
		e.Uint8(uint8(st.level))
		e.Int64(int64(st.loc))
		e.Bool(st.locOpen)
		e.Int64(int64(st.locVs))
		e.Int64(int64(st.lastKnown))
		e.Uint64(uint64(st.parent))
		e.Int64(int64(st.parentVs))
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
	for i := 0; i < n; i++ {
		t := model.Tag(d.Uint64())
		st := &objState{
			level:     model.Level(d.Uint8()),
			loc:       model.LocationID(d.Int64()),
			locOpen:   d.Bool(),
			locVs:     model.Epoch(d.Int64()),
			lastKnown: model.LocationID(d.Int64()),
			parent:    model.Tag(d.Uint64()),
			parentVs:  model.Epoch(d.Int64()),
			missing:   d.Bool(),
		}
		if d.Err() != nil {
			return nil, d.Err()
		}
		if t == model.NoTag {
			return nil, fmt.Errorf("%w: compressor state %d has zero tag", checkpoint.ErrCorrupt, i)
		}
		if _, dup := states[t]; dup {
			return nil, fmt.Errorf("%w: duplicate compressor state for tag %d", checkpoint.ErrCorrupt, t)
		}
		states[t] = st
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	return &Level1{levelOf: levelOf, states: states, section: section}, nil
}
