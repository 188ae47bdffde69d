package graph

import (
	"strings"
	"testing"

	"spire/internal/model"
)

// TestCrossLayerEdgeResolvesWhenMiddleAppears covers the paper's
// "temporarily capture containment in non-adjacent layers": an item links
// to a pallet while its case is missed; when the case shows up at the
// same location, adjacent-layer edges form alongside.
func TestCrossLayerEdgeResolvesWhenMiddleAppears(t *testing.T) {
	g := New()
	p := tag(t, model.LevelPallet, 1)
	c := tag(t, model.LevelCase, 1)
	i := tag(t, model.LevelItem, 1)

	mustUpdate(t, g, dockReader, 1, p, i) // case missed
	if parentEdge(g.Node(i), p) == nil {
		t.Fatal("cross-layer edge pallet→item expected")
	}
	// Epoch 2: the case is read too. The item keeps its old pallet edge
	// (it is not newly colored, so no new edges form at the item), but
	// the case gains edges both ways.
	mustUpdate(t, g, dockReader, 2, p, c, i)
	nc := g.Node(c)
	if parentEdge(nc, p) == nil {
		t.Error("case must link under the pallet")
	}
	if childEdge(nc, i) == nil {
		t.Error("case must link to the co-located item")
	}
	if parentEdge(g.Node(i), p) == nil {
		t.Error("the stale cross-layer edge survives until contradicted")
	}
}

// TestConfirmedEdgeClearedOnRemoval: dropping the confirmed edge must
// clear the node's confirmation pointer.
func TestConfirmedEdgeClearedOnRemoval(t *testing.T) {
	g := New()
	c := tag(t, model.LevelCase, 1)
	i := tag(t, model.LevelItem, 1)
	mustUpdate(t, g, beltReader, 1, c, i)
	n := g.Node(i)
	if n.ConfirmedEdge == nil {
		t.Fatal("setup: confirmation expected")
	}
	// The two split up: both observed at different locations.
	mustUpdate(t, g, dockReader, 2, c)
	mustUpdate(t, g, packReader, 2, i)
	if parentEdge(n, c) != nil {
		t.Fatal("edge must be dropped")
	}
	if n.ConfirmedEdge != nil {
		t.Error("dropping the confirmed edge must clear ConfirmedEdge")
	}
}

// TestUpdateBatchRejectsSecondReading pins the one-reading-per-tag
// contract deduplication guarantees: a tag read twice in one group, by
// two readers at one location, or by two readers at two locations is an
// error, and the first reading's color stands.
func TestUpdateBatchRejectsSecondReading(t *testing.T) {
	dock2 := &model.Reader{ID: 9, Location: locA, Period: 1}
	for _, tc := range []struct {
		name    string
		readers []*model.Reader
	}{
		{"one group", []*model.Reader{dockReader}},
		{"one location", []*model.Reader{dockReader, dock2}},
		{"two locations", []*model.Reader{dockReader, beltReader}},
	} {
		g := New()
		i := tag(t, model.LevelItem, 1)
		b := model.NewBatch(1)
		tags := []model.Tag{i}
		if len(tc.readers) == 1 {
			tags = append(tags, i)
		}
		for _, r := range tc.readers {
			b.AppendGroup(r.ID, tags)
		}
		err := g.UpdateBatch(b, tc.readers)
		if err == nil || !strings.Contains(err.Error(), "read twice in epoch 1") {
			t.Errorf("%s: got %v, want a second-reading error", tc.name, err)
		}
		if got := g.Node(i).ColorAt(1); got != locA {
			t.Errorf("%s: color = %v, want the first reading's %v", tc.name, got, locA)
		}
	}
}

// TestHistoryShiftsOncePerEpochWithTwoReaders: two readers at the same
// location processing overlapping groups in one epoch must not
// double-shift edge histories.
func TestHistoryShiftsOncePerEpochWithTwoReaders(t *testing.T) {
	g := New()
	dock2 := &model.Reader{ID: 9, Location: locA, Period: 1}
	c := tag(t, model.LevelCase, 1)
	i := tag(t, model.LevelItem, 1)
	// Epoch 1: both seen together by one reader.
	mustUpdate(t, g, dockReader, 1, c, i)
	// Epoch 2: the case via reader 1, the item via reader 9 (same
	// location, split coverage).
	mustUpdate(t, g, dockReader, 2, c)
	mustUpdate(t, g, dock2, 2, i)
	e := parentEdge(g.Node(i), c)
	if e == nil {
		t.Fatal("edge must survive")
	}
	if !bit(e.History, 0) {
		t.Error("bit 0 must be revised to co-located once both sides were seen")
	}
	if !bit(e.History, 1) {
		t.Error("bit 1 must hold epoch 1's co-location (exactly one shift)")
	}
	if bit(e.History, 2) {
		t.Error("no third bit may be set: the history shifted twice, not once per epoch")
	}
}

// TestConfirmationRequiresAdjacentLevel: a pallet-level confirming reader
// must not confirm items (two levels down) to anything.
func TestConfirmationRequiresAdjacentLevel(t *testing.T) {
	g := New()
	outBelt := &model.Reader{ID: 8, Location: locB, Period: 1,
		Confirming: true, ConfirmLevel: model.LevelPallet}
	p := tag(t, model.LevelPallet, 1)
	c1 := tag(t, model.LevelCase, 1)
	c2 := tag(t, model.LevelCase, 2)
	i := tag(t, model.LevelItem, 1)
	mustUpdate(t, g, outBelt, 1, p, c1, c2, i)
	if g.Node(c1).ConfirmedEdge == nil || g.Node(c2).ConfirmedEdge == nil {
		t.Error("cases (adjacent level) must be confirmed to the pallet")
	}
	if g.Node(i).ConfirmedEdge != nil {
		t.Error("items must not be confirmed by a pallet-level reader (ambiguous case)")
	}
	if g.Node(p).NumParents() != 0 {
		t.Error("confirmed top-level container must have no parents")
	}
}

// TestEdgeCountAfterChurn: edges stay bookkept through add/remove cycles.
func TestEdgeCountAfterChurn(t *testing.T) {
	g := New()
	c := tag(t, model.LevelCase, 1)
	i1 := tag(t, model.LevelItem, 1)
	i2 := tag(t, model.LevelItem, 2)
	mustUpdate(t, g, dockReader, 1, c, i1, i2)
	if g.EdgeCount() != 2 {
		t.Fatalf("EdgeCount = %d, want 2", g.EdgeCount())
	}
	// Split: i2 moves away (observed apart), dropping one edge.
	mustUpdate(t, g, dockReader, 2, c, i1)
	mustUpdate(t, g, packReader, 2, i2)
	if g.EdgeCount() != 1 {
		t.Fatalf("EdgeCount after split = %d, want 1", g.EdgeCount())
	}
	// Reunion at the new location re-creates the edge.
	mustUpdate(t, g, packReader, 3, c, i1, i2)
	if g.EdgeCount() != 2 {
		t.Fatalf("EdgeCount after reunion = %d, want 2", g.EdgeCount())
	}
	// Removing the case node drops everything.
	g.RemoveNode(c)
	if g.EdgeCount() != 0 {
		t.Fatalf("EdgeCount after RemoveNode = %d, want 0", g.EdgeCount())
	}
}

// TestRemoveEdgeDirect exercises the exported RemoveEdge path.
func TestRemoveEdgeDirect(t *testing.T) {
	g := New()
	c := tag(t, model.LevelCase, 1)
	i := tag(t, model.LevelItem, 1)
	mustUpdate(t, g, beltReader, 1, c, i)
	n := g.Node(i)
	e := parentEdge(n, c)
	g.RemoveEdge(e)
	if parentEdge(n, c) != nil || g.EdgeCount() != 0 {
		t.Error("edge must be fully detached")
	}
	if n.ConfirmedEdge != nil {
		t.Error("confirmed pointer must clear with the edge")
	}
	g.RemoveEdge(e) // double removal is a no-op
	if g.EdgeCount() != 0 {
		t.Error("double removal must not corrupt the count")
	}
}

// TestFreedEdgesPinNothing: a removed node drops its spans, and an edge
// parked on the free list points at no node, so neither keeps a dead
// node reachable; removing a parked edge again changes nothing.
func TestFreedEdgesPinNothing(t *testing.T) {
	g := New()
	c := tag(t, model.LevelCase, 1)
	i1, i2 := tag(t, model.LevelItem, 1), tag(t, model.LevelItem, 2)
	mustUpdate(t, g, dockReader, 1, c, i1, i2)
	n := g.Node(c)
	g.RemoveNode(c)
	if n.parents != nil || n.children != nil {
		t.Errorf("removed node keeps spans %v / %v", n.parents, n.children)
	}
	if g.FreeEdgeCount() != 2 {
		t.Fatalf("%d parked edges, want 2", g.FreeEdgeCount())
	}
	for _, e := range g.freeEdges {
		if e.Parent != nil || e.Child != nil {
			t.Errorf("parked edge still points at %v → %v", e.Parent, e.Child)
		}
	}
	mustUpdate(t, g, dockReader, 2, c, i1)
	edges, parked := g.EdgeCount(), g.FreeEdgeCount()
	g.RemoveEdge(g.freeEdges[0])
	if g.EdgeCount() != edges || g.FreeEdgeCount() != parked {
		t.Errorf("removing a parked edge moved the counts to %d edges, %d parked; want %d, %d",
			g.EdgeCount(), g.FreeEdgeCount(), edges, parked)
	}
	if err := g.CheckInvariants(2); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotStats covers the monitoring snapshot.
func TestSnapshotStats(t *testing.T) {
	g := New()
	c := tag(t, model.LevelCase, 1)
	i1 := tag(t, model.LevelItem, 1)
	i2 := tag(t, model.LevelItem, 2)
	mustUpdate(t, g, beltReader, 1, c, i1) // confirms c→i1
	mustUpdate(t, g, dockReader, 2, i2)
	st := g.Snapshot(2)
	if st.Nodes != 3 || st.NodesByLevel[model.LevelItem] != 2 || st.NodesByLevel[model.LevelCase] != 1 {
		t.Errorf("node stats wrong: %+v", st)
	}
	if st.Edges != 1 || st.ConfirmedEdges != 1 {
		t.Errorf("edge stats wrong: %+v", st)
	}
	if st.Colored != 1 {
		t.Errorf("Colored = %d, want 1 (only i2 observed at epoch 2)", st.Colored)
	}
	if st.ApproxBytes != g.ApproxBytes() {
		t.Error("ApproxBytes mismatch")
	}
}

// TestVisitAccessors covers the edge-span accessors.
func TestVisitAccessors(t *testing.T) {
	g := New()
	c := tag(t, model.LevelCase, 1)
	i1 := tag(t, model.LevelItem, 1)
	i2 := tag(t, model.LevelItem, 2)
	mustUpdate(t, g, dockReader, 1, c, i1, i2)
	nc := g.Node(c)
	for _, e := range nc.Children() {
		if e.Parent != nc {
			t.Error("child edge parent mismatch")
		}
	}
	if kids := nc.Children(); len(kids) != 2 || nc.NumChildren() != 2 ||
		kids[0].Child.Tag != i1 || kids[1].Child.Tag != i2 {
		t.Errorf("children span = %d edges, want [i1 i2]", len(kids))
	}
	if ps := g.Node(i1).Parents(); len(ps) != 1 || g.Node(i1).NumParents() != 1 || ps[0].Parent != nc {
		t.Errorf("parents span = %d edges, want [c]", len(ps))
	}
	count := 0
	g.Nodes(func(*Node) { count++ })
	if count != 3 {
		t.Errorf("Nodes visited %d, want 3", count)
	}
}
