package core

import (
	"bytes"
	"reflect"
	"testing"

	"spire/internal/epc"
	"spire/internal/inference"
	"spire/internal/model"
	"spire/internal/trace"
)

// Retired-tag rules on a hand-built deployment: readers 1 and 3 on a
// shelf, reader 2 at the exit door. An object read at the exit is retired
// after inference; afterwards dedup picks each reading's reader first, an
// exit reader's reading of a retired tag is dropped, and any other
// reader's reading resurrects the tag.

const (
	locShelf model.LocationID = 1
	locExit  model.LocationID = 2
)

func exitSubstrate(t *testing.T) *Substrate {
	t.Helper()
	readers := []model.Reader{
		{ID: 1, Location: locShelf, Period: 1, ReadRate: 1},
		{ID: 2, Location: locExit, Period: 1, ReadRate: 1},
		{ID: 3, Location: locShelf, Period: 1, ReadRate: 1},
	}
	sub, err := New(Config{
		Readers:     readers,
		Locations:   []model.Location{{ID: locShelf, Name: "shelf"}, {ID: locExit, Name: "exit", Exit: true}},
		Inference:   inference.DefaultConfig(),
		Compression: Level1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sub.Trace(trace.New(trace.Config{All: true}))
	return sub
}

func itemTags(t *testing.T, n int) []model.Tag {
	t.Helper()
	tags := make([]model.Tag, n)
	for i := range tags {
		g, err := epc.Encode(epc.Identity{Level: model.LevelItem, Company: 1, ItemRef: 1, Serial: uint32(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		tags[i] = g
	}
	return tags
}

// epoch is one epoch's readings, reader → tags, ascending by reader.
type epoch struct {
	readers []model.ReaderID
	tags    [][]model.Tag
}

// process runs one epoch and returns the kept readings per group and the
// epoch's MechResurrected records as (reader, tag) pairs in tag order.
func process(t *testing.T, sub *Substrate, now model.Epoch, in epoch) (kept map[model.ReaderID][]model.Tag, resurrected [][2]uint64, out *EpochOutput) {
	t.Helper()
	b := model.NewBatch(now)
	for i, r := range in.readers {
		b.AppendGroup(r, in.tags[i])
	}
	out, err := sub.ProcessBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	kept = make(map[model.ReaderID][]model.Tag)
	for i, g := range b.Groups {
		kept[g.Reader] = append([]model.Tag{}, b.GroupTags(i)...)
	}
	for _, g := range sub.rec.TracedTags() {
		for _, rec := range sub.rec.TagRecords(g) {
			if rec.Mech == trace.MechResurrected && rec.Epoch == now {
				resurrected = append(resurrected, [2]uint64{uint64(rec.Reader), uint64(rec.Tag)})
			}
		}
	}
	return kept, resurrected, out
}

// TestMixedExitEpochOnRetiredTags pins the tombstone rules on one epoch in
// which exit and shelf readers read retired tags together, then on a
// second in which an exit reader's fresh dedup history keeps a retired tag
// from a shelf reader.
func TestMixedExitEpochOnRetiredTags(t *testing.T) {
	sub := exitSubstrate(t)
	tg := itemTags(t, 5)
	_, _, out := process(t, sub, 1, epoch{[]model.ReaderID{2}, [][]model.Tag{tg}})
	if len(out.Retired) != len(tg) {
		t.Fatalf("epoch 1 retired %v, want all of %v", out.Retired, tg)
	}

	kept, res, _ := process(t, sub, 2, epoch{
		[]model.ReaderID{1, 2, 3},
		[][]model.Tag{{tg[2], tg[0]}, {tg[0], tg[1], tg[3]}, {tg[1], tg[4]}},
	})
	wantKept := map[model.ReaderID][]model.Tag{1: {tg[2], tg[0]}, 2: {}, 3: {tg[4]}}
	if !reflect.DeepEqual(kept, wantKept) {
		t.Fatalf("epoch 2 kept %v, want %v", kept, wantKept)
	}
	wantRes := [][2]uint64{{1, uint64(tg[0])}, {1, uint64(tg[2])}, {3, uint64(tg[4])}}
	if !sameRecords(res, wantRes) {
		t.Fatalf("epoch 2 resurrected %v, want %v", res, wantRes)
	}

	// tg[1] and tg[3] stayed retired and picked up reader 2 as their dedup
	// history, which is fresh: reader 2 keeps winning ties, so the shelf
	// readers' readings do not resurrect them.
	kept, res, _ = process(t, sub, 3, epoch{
		[]model.ReaderID{1, 2, 3},
		[][]model.Tag{{tg[1]}, {tg[1], tg[3]}, {tg[3]}},
	})
	wantKept = map[model.ReaderID][]model.Tag{1: {}, 2: {}, 3: {}}
	if !reflect.DeepEqual(kept, wantKept) || len(res) != 0 {
		t.Fatalf("epoch 3 kept %v resurrected %v, want nothing", kept, res)
	}
	for _, g := range []model.Tag{tg[1], tg[3]} {
		if sub.Graph().Node(g) != nil {
			t.Errorf("retired tag %d is back in the graph", g)
		}
	}
}

// sameRecords compares record lists, treating nil and empty as equal.
func sameRecords(a, b [][2]uint64) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// TestRetiredTagWithHistorySnapshot checkpoints a tag that is both
// retired and holds dedup history (an exit reader read it after it
// retired): the snapshot restores and re-encodes byte-identically, and on
// both substrates the tag's next exit reading is dropped while a shelf
// reading resurrects it.
func TestRetiredTagWithHistorySnapshot(t *testing.T) {
	sub := exitSubstrate(t)
	tg := itemTags(t, 2)
	gone, stay := tg[0], tg[1]
	process(t, sub, 1, epoch{[]model.ReaderID{1, 2}, [][]model.Tag{{stay}, {gone}}})
	kept, _, _ := process(t, sub, 2, epoch{[]model.ReaderID{1, 2}, [][]model.Tag{{stay}, {gone}}})
	if len(kept[2]) != 0 {
		t.Fatalf("exit reading of a retired tag kept: %v", kept)
	}
	if got := sub.dedup.Retired(); !reflect.DeepEqual(got, []model.Tag{gone}) {
		t.Fatalf("retired = %v, want [%d]", got, gone)
	}
	if sub.dedup.Len() != 2 {
		t.Fatalf("dedup history holds %d tags, want 2 (the retired tag included)", sub.dedup.Len())
	}

	var snap bytes.Buffer
	if err := sub.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSubstrate(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := restored.Snapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap.Bytes(), again.Bytes()) {
		t.Fatal("restored substrate re-encodes different bytes")
	}

	restored.Trace(trace.New(trace.Config{All: true}))
	for _, s := range []*Substrate{sub, restored} {
		kept, _, _ := process(t, s, 3, epoch{[]model.ReaderID{1, 2}, [][]model.Tag{{stay}, {gone}}})
		if len(kept[2]) != 0 {
			t.Fatalf("exit reading of a retired tag kept after the snapshot: %v", kept)
		}
		kept, res, _ := process(t, s, 4, epoch{[]model.ReaderID{1}, [][]model.Tag{{stay, gone}}})
		if len(kept[1]) != 2 || !sameRecords(res, [][2]uint64{{1, uint64(gone)}}) {
			t.Fatalf("shelf reading must resurrect the tag: kept %v resurrected %v", kept, res)
		}
		if s.Graph().Node(gone) == nil {
			t.Fatal("resurrected tag is not in the graph")
		}
	}
}
