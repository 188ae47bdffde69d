package graph

import (
	"math/rand"
	"testing"

	"spire/internal/epc"
	"spire/internal/model"
)

// Test fixture: locations A(0) = loading dock, B(1) = conveyor belt,
// C(2) = packaging area, mirroring the paper's running example.
const (
	locA = model.LocationID(0)
	locB = model.LocationID(1)
	locC = model.LocationID(2)
)

var (
	dockReader = &model.Reader{ID: 1, Location: locA, Period: 1, ReadRate: 1}
	beltReader = &model.Reader{ID: 2, Location: locB, Period: 1, ReadRate: 1,
		Confirming: true, ConfirmLevel: model.LevelCase}
	packReader = &model.Reader{ID: 3, Location: locC, Period: 1, ReadRate: 1}
)

func tag(t *testing.T, lvl model.Level, serial uint32) model.Tag {
	t.Helper()
	return epc.MustEncode(epc.Identity{Level: lvl, Company: 1, Serial: serial})
}

// parentEdge returns n's edge from the given parent, if any.
func parentEdge(n *Node, parent model.Tag) *Edge {
	if i, ok := parentIndex(n.parents, parent); ok {
		return n.parents[i]
	}
	return nil
}

// childEdge returns n's edge to the given child, if any.
func childEdge(n *Node, child model.Tag) *Edge {
	if i, ok := childIndex(n.children, child); ok {
		return n.children[i]
	}
	return nil
}

func mustUpdate(t *testing.T, g *Graph, r *model.Reader, now model.Epoch, tags ...model.Tag) {
	t.Helper()
	if err := g.update(r, tags, now); err != nil {
		t.Fatalf("update: %v", err)
	}
	if err := g.CheckInvariants(now); err != nil {
		t.Fatalf("invariants after update at %d: %v", now, err)
	}
}

func TestUpdateCreatesAndColorsNodes(t *testing.T) {
	g := New()
	item := tag(t, model.LevelItem, 1)
	mustUpdate(t, g, dockReader, 1, item)

	n := g.Node(item)
	if n == nil {
		t.Fatal("node not created")
	}
	if n.Level != model.LevelItem {
		t.Errorf("level = %v, want item", n.Level)
	}
	if !n.Colored(1) || n.ColorAt(1) != locA {
		t.Errorf("node must be colored A at epoch 1; got %v", n.ColorAt(1))
	}
	if n.NewColorAt != 1 {
		t.Errorf("first coloring must count as a new color; NewColorAt = %d", n.NewColorAt)
	}
	if n.ColorAt(2) != model.LocationNone {
		t.Error("node must be uncolored in an epoch it was not observed")
	}
	if n.RecentColor != locA || n.SeenAt != 1 {
		t.Error("uncolored node must retain (recent color, seen at)")
	}
}

func TestUpdateErrors(t *testing.T) {
	g := New()
	if err := g.update(nil, nil, 1); err == nil {
		t.Error("nil reader must fail")
	}
	bad := &model.Reader{ID: 9, Location: model.LocationUnknown}
	if err := g.update(bad, nil, 1); err == nil {
		t.Error("reader without a known location must fail")
	}
	if err := g.update(dockReader, []model.Tag{model.NoTag}, 1); err == nil {
		t.Error("invalid tag must fail")
	}
}

func TestSameColorReobservationIsNotNew(t *testing.T) {
	g := New()
	item := tag(t, model.LevelItem, 1)
	mustUpdate(t, g, dockReader, 1, item)
	mustUpdate(t, g, dockReader, 5, item)
	if got := g.Node(item).NewColorAt; got != 1 {
		t.Errorf("re-observation at the same location must not be a new color; NewColorAt = %d", got)
	}
	mustUpdate(t, g, beltReader, 6, item)
	if got := g.Node(item).NewColorAt; got != 6 {
		t.Errorf("observation at a different location is a new color; NewColorAt = %d", got)
	}
}

func TestEdgeCreationAdjacentLayers(t *testing.T) {
	g := New()
	c1 := tag(t, model.LevelCase, 1)
	c2 := tag(t, model.LevelCase, 2)
	i1 := tag(t, model.LevelItem, 1)
	mustUpdate(t, g, dockReader, 1, c1, c2, i1)

	n := g.Node(i1)
	if n.NumParents() != 2 {
		t.Fatalf("item must gain a possible-parent edge to each co-located case; got %d", n.NumParents())
	}
	if parentEdge(n, c1) == nil || parentEdge(n, c2) == nil {
		t.Error("edges to both cases expected")
	}
	if g.EdgeCount() != 2 {
		t.Errorf("EdgeCount = %d, want 2", g.EdgeCount())
	}
}

func TestEdgeCreationCrossLayer(t *testing.T) {
	// An item observed with a pallet but no case links directly to the
	// pallet (the paper's layer-crossing flexibility).
	g := New()
	p := tag(t, model.LevelPallet, 1)
	i := tag(t, model.LevelItem, 1)
	mustUpdate(t, g, dockReader, 1, p, i)
	if parentEdge(g.Node(i), p) == nil {
		t.Error("item must link to the pallet when no case is present")
	}
}

func TestEdgeCreationPrefersAdjacentLayer(t *testing.T) {
	g := New()
	p := tag(t, model.LevelPallet, 1)
	c := tag(t, model.LevelCase, 1)
	i := tag(t, model.LevelItem, 1)
	mustUpdate(t, g, dockReader, 1, p, c, i)
	ni := g.Node(i)
	if parentEdge(ni, c) == nil {
		t.Error("item must link to the case")
	}
	if parentEdge(ni, p) != nil {
		t.Error("item must not link past the case to the pallet when a case of its color exists")
	}
	if parentEdge(g.Node(c), p) == nil {
		t.Error("case must link to the pallet")
	}
}

func TestNoEdgesAcrossColors(t *testing.T) {
	g := New()
	c := tag(t, model.LevelCase, 1)
	i := tag(t, model.LevelItem, 1)
	mustUpdate(t, g, dockReader, 1, c)
	mustUpdate(t, g, packReader, 1, i)
	if g.EdgeCount() != 0 {
		t.Errorf("nodes in different locations must not be linked; EdgeCount = %d", g.EdgeCount())
	}
}

func TestEdgeRemovalOnColorSplit(t *testing.T) {
	g := New()
	c := tag(t, model.LevelCase, 1)
	i := tag(t, model.LevelItem, 1)
	mustUpdate(t, g, dockReader, 1, c, i)
	if parentEdge(g.Node(i), c) == nil {
		t.Fatal("setup: edge expected")
	}
	// Epoch 2: the case moves to the packaging area, the item stays.
	mustUpdate(t, g, packReader, 2, c)
	mustUpdate(t, g, dockReader, 2, i)
	if parentEdge(g.Node(i), c) != nil {
		t.Error("edge between differently-colored observed nodes must be removed")
	}
}

func TestEdgeSurvivesWhenPartnerUnobserved(t *testing.T) {
	g := New()
	c := tag(t, model.LevelCase, 1)
	i := tag(t, model.LevelItem, 1)
	mustUpdate(t, g, dockReader, 1, c, i)
	mustUpdate(t, g, dockReader, 2, c) // item missed
	e := parentEdge(g.Node(i), c)
	if e == nil {
		t.Fatal("edge to an unobserved partner must survive (missed reading, not a move)")
	}
	if bit(e.History, 0) {
		t.Error("missed partner must record negative co-location evidence")
	}
	if !bit(e.History, 1) {
		t.Error("the earlier co-location must have shifted to bit 1")
	}
}

func TestCoLocationHistoryAccumulates(t *testing.T) {
	g := New()
	c := tag(t, model.LevelCase, 1)
	i := tag(t, model.LevelItem, 1)
	for e := model.Epoch(1); e <= 5; e++ {
		mustUpdate(t, g, dockReader, e, c, i)
	}
	e := parentEdge(g.Node(i), c)
	if e.History.Ones() != 5 {
		t.Errorf("five co-located epochs must set five bits; got %d", e.History.Ones())
	}
}

func TestConfirmingReaderSetsParentAndPrunes(t *testing.T) {
	// The Fig. 3(b) scenario: cases 2 and 3 with item 4 observed together
	// at the dock (ambiguous), then case 2 is scanned alone with item 4 on
	// the belt, confirming case 2 as item 4's container and case 2 as a
	// top-level container.
	g := New()
	pallet1 := tag(t, model.LevelPallet, 1)
	case2 := tag(t, model.LevelCase, 2)
	case3 := tag(t, model.LevelCase, 3)
	item4 := tag(t, model.LevelItem, 4)
	mustUpdate(t, g, dockReader, 1, pallet1, case2, case3, item4)

	n4 := g.Node(item4)
	if n4.NumParents() != 2 {
		t.Fatalf("item 4 must start with 2 possible parents, has %d", n4.NumParents())
	}
	// Belt scan: case 2 and item 4 only.
	mustUpdate(t, g, beltReader, 2, case2, item4)

	if g.Node(case2).NumParents() != 0 {
		t.Error("confirmed top-level container must lose its parent edges")
	}
	if parentEdge(n4, case3) != nil {
		t.Error("item 4's edge to case 3 must be dropped after confirmation")
	}
	e := parentEdge(n4, case2)
	if e == nil {
		t.Fatal("item 4 must keep its edge to case 2")
	}
	if n4.ConfirmedEdge != e {
		t.Error("case 2 must be item 4's confirmed parent")
	}
	if n4.ConfirmedAt != 2 || n4.Conflicts != 0 {
		t.Errorf("confirmation bookkeeping: at %d conflicts %d", n4.ConfirmedAt, n4.Conflicts)
	}
}

func TestConfirmingReaderAmbiguousGroupDoesNothing(t *testing.T) {
	// Two cases on the belt at once: the "one at a time" premise is
	// violated, so nothing may be confirmed.
	g := New()
	case1 := tag(t, model.LevelCase, 1)
	case2 := tag(t, model.LevelCase, 2)
	item := tag(t, model.LevelItem, 1)
	mustUpdate(t, g, beltReader, 1, case1, case2, item)
	if g.Node(item).ConfirmedEdge != nil {
		t.Error("no confirmation with two candidate containers")
	}
}

func TestConflictsCountAfterConfirmation(t *testing.T) {
	g := New()
	c := tag(t, model.LevelCase, 1)
	i := tag(t, model.LevelItem, 1)
	mustUpdate(t, g, beltReader, 1, c, i) // confirm c contains i
	// Case read alone twice: each is a conflicting observation.
	mustUpdate(t, g, dockReader, 2, c)
	mustUpdate(t, g, dockReader, 3, c)
	n := g.Node(i)
	if n.Conflicts != 2 {
		t.Errorf("Conflicts = %d, want 2", n.Conflicts)
	}
	// Reading both together again is not a conflict.
	mustUpdate(t, g, dockReader, 4, c, i)
	if n.Conflicts != 2 {
		t.Errorf("Conflicts after co-observation = %d, want 2", n.Conflicts)
	}
}

func TestConflictRevisedWhenPartnerColoredLater(t *testing.T) {
	// Within one epoch, the case is processed by one reader before the
	// item is processed by another reader at the same location (e.g. two
	// readers covering one area). The pessimistic conflict recorded on
	// the first visit must be revised on the second.
	g := New()
	c := tag(t, model.LevelCase, 1)
	i := tag(t, model.LevelItem, 1)
	mustUpdate(t, g, beltReader, 1, c, i) // confirm
	belt2 := &model.Reader{ID: 7, Location: locB, Period: 1}
	mustUpdate(t, g, beltReader, 2, c)
	mustUpdate(t, g, belt2, 2, i)
	n := g.Node(i)
	if n.Conflicts != 0 {
		t.Errorf("Conflicts = %d, want 0 (revised on second visit)", n.Conflicts)
	}
	e := parentEdge(n, c)
	if !bit(e.History, 0) {
		t.Error("co-location bit must be set once both endpoints are colored")
	}
	if n.BetaEither != 2 || n.BetaOne != 0 {
		t.Errorf("beta counters = either %d one %d, want 2, 0", n.BetaEither, n.BetaOne)
	}
}

func TestAdaptiveBetaCounters(t *testing.T) {
	g := New()
	c := tag(t, model.LevelCase, 1)
	i := tag(t, model.LevelItem, 1)
	mustUpdate(t, g, beltReader, 1, c, i) // confirm; both read
	mustUpdate(t, g, dockReader, 2, c)    // one read
	mustUpdate(t, g, dockReader, 3, c, i) // both read
	n := g.Node(i)
	if n.BetaEither != 3 || n.BetaOne != 1 {
		t.Fatalf("beta counters = either %d one %d, want 3, 1", n.BetaEither, n.BetaOne)
	}
	if got, want := n.AdaptiveBeta(0.4), 1.0/3; got != want {
		t.Errorf("AdaptiveBeta = %v, want %v", got, want)
	}
	fresh := &Node{}
	if got := fresh.AdaptiveBeta(0.4); got != 0.4 {
		t.Errorf("AdaptiveBeta fallback = %v, want 0.4", got)
	}
}

func TestRemoveNode(t *testing.T) {
	g := New()
	c := tag(t, model.LevelCase, 1)
	i1 := tag(t, model.LevelItem, 1)
	i2 := tag(t, model.LevelItem, 2)
	mustUpdate(t, g, dockReader, 1, c, i1, i2)
	if g.Len() != 3 || g.EdgeCount() != 2 {
		t.Fatalf("setup: %d nodes %d edges", g.Len(), g.EdgeCount())
	}
	g.RemoveNode(c)
	if g.Len() != 2 || g.EdgeCount() != 0 {
		t.Errorf("after removal: %d nodes %d edges, want 2, 0", g.Len(), g.EdgeCount())
	}
	if err := g.CheckInvariants(1); err != nil {
		t.Errorf("invariants: %v", err)
	}
	g.RemoveNode(c) // idempotent
	if len(coloredNodes(g, model.LevelCase, locA, 1)) != 0 {
		t.Error("removed node must leave the colored index")
	}
}

// coloredNodes reads the colored index's bucket for level and color in
// epoch now: nil when the index belongs to another epoch.
func coloredNodes(g *Graph, lvl model.Level, color model.LocationID, now model.Epoch) []*Node {
	if g.coloredAt != now || int(color) >= len(g.colored[lvl]) {
		return nil
	}
	return g.colored[lvl][color]
}

func TestColoredIndexResetsAcrossEpochs(t *testing.T) {
	g := New()
	i := tag(t, model.LevelItem, 1)
	mustUpdate(t, g, dockReader, 1, i)
	if len(coloredNodes(g, model.LevelItem, locA, 1)) != 1 {
		t.Fatal("node must be indexed in its epoch")
	}
	if coloredNodes(g, model.LevelItem, locA, 2) != nil {
		t.Error("index query for a later epoch must be empty")
	}
	mustUpdate(t, g, beltReader, 2, i)
	if len(coloredNodes(g, model.LevelItem, locA, 2)) != 0 {
		t.Error("stale bucket must be cleared on epoch change")
	}
	if len(coloredNodes(g, model.LevelItem, locB, 2)) != 1 {
		t.Error("node must appear in its new bucket")
	}
}

func TestAddEdgeIdempotent(t *testing.T) {
	g := New()
	c := tag(t, model.LevelCase, 1)
	i := tag(t, model.LevelItem, 1)
	mustUpdate(t, g, dockReader, 1, c, i)
	n, p := g.Node(i), g.Node(c)
	e1 := parentEdge(n, c)
	e2 := g.AddEdge(p, n, 5)
	if e1 != e2 {
		t.Error("AddEdge must return the existing edge")
	}
	if g.EdgeCount() != 1 {
		t.Errorf("EdgeCount = %d, want 1", g.EdgeCount())
	}
}

func TestApproxBytesGrows(t *testing.T) {
	g := New()
	empty := g.ApproxBytes()
	mustUpdate(t, g, dockReader, 1, tag(t, model.LevelCase, 1), tag(t, model.LevelItem, 1))
	if g.ApproxBytes() <= empty {
		t.Error("ApproxBytes must grow with content")
	}
}

// TestPaperRunningExample walks the observation sequence of Fig. 1 /
// Fig. 3 and checks the structural outcomes the paper describes.
func TestPaperRunningExample(t *testing.T) {
	g := New()
	p1 := tag(t, model.LevelPallet, 1)
	c2 := tag(t, model.LevelCase, 2)
	c3 := tag(t, model.LevelCase, 3)
	i4 := tag(t, model.LevelItem, 4)
	i5 := tag(t, model.LevelItem, 5)
	i6 := tag(t, model.LevelItem, 6)
	// i7 is present but missed at t=1 — it simply never appears.
	c9 := tag(t, model.LevelCase, 9)
	p8 := tag(t, model.LevelPallet, 8)

	// t=1: dock reads objects 1..6 (7 missed).
	mustUpdate(t, g, dockReader, 1, p1, c2, c3, i4, i5, i6)
	for _, it := range []model.Tag{i4, i5, i6} {
		if g.Node(it).NumParents() != 2 {
			t.Fatalf("t=1: item %d must have ambiguous containment (2 cases)", it)
		}
	}

	// t=2: case 2 scanned individually on the belt with item 4.
	mustUpdate(t, g, beltReader, 2, c2, i4)
	if g.Node(c2).NumParents() != 0 {
		t.Error("t=2: edge pallet→case2 must be pruned (top-level confirmation)")
	}
	if parentEdge(g.Node(i4), c3) != nil {
		t.Error("t=2: edge case3→item4 must be pruned (confirmed parent)")
	}

	// t=3: case 3 scanned on the belt with items 5; case 9 appears in the
	// packaging area. Item 6 fell off (unobserved).
	mustUpdate(t, g, beltReader, 3, c3, i5)
	mustUpdate(t, g, packReader, 3, c9)
	if g.Node(i5).ConfirmedEdge == nil ||
		g.Node(i5).ConfirmedEdge.Parent.Tag != c3 {
		t.Error("t=3: case 3 must be confirmed parent of item 5")
	}

	// t=4: item 6 read at the belt again; pallet 8 assembled in the
	// packaging area from cases 2, 3, 9 (case 2 missed this epoch).
	mustUpdate(t, g, beltReader, 4, i6)
	mustUpdate(t, g, packReader, 4, p8, c3, c9)

	if parentEdge(g.Node(i6), c3) != nil {
		t.Error("t=4: item 6 (belt) and case 3 (packaging) must be unlinked")
	}
	if parentEdge(g.Node(c3), p8) == nil || parentEdge(g.Node(c9), p8) == nil {
		t.Error("t=4: new pallet 8 must link to co-located cases 3 and 9")
	}
	if parentEdge(g.Node(c2), p8) != nil {
		t.Error("t=4: unobserved case 2 must not yet link to pallet 8")
	}
	if err := g.CheckInvariants(4); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// Property: arbitrary reader/tag sequences never violate the structural
// invariants.
func TestRandomizedUpdatesKeepInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	readers := []*model.Reader{dockReader, beltReader, packReader}
	g := New()
	pool := make([]model.Tag, 0, 60)
	for s := uint32(1); s <= 20; s++ {
		pool = append(pool,
			tag(t, model.LevelItem, s),
			tag(t, model.LevelCase, s),
			tag(t, model.LevelPallet, s))
	}
	for now := model.Epoch(1); now <= 200; now++ {
		// Partition a random subset of tags across readers (dedup means a
		// tag goes to at most one reader per epoch).
		perm := rng.Perm(len(pool))
		cut1, cut2 := rng.Intn(20), 20+rng.Intn(20)
		sets := map[*model.Reader][]model.Tag{}
		for i, pi := range perm[:40] {
			r := readers[0]
			if i >= cut1 && i < cut2 {
				r = readers[1]
			} else if i >= cut2 {
				r = readers[2]
			}
			if rng.Float64() < 0.5 {
				sets[r] = append(sets[r], pool[pi])
			}
		}
		for _, r := range readers {
			if err := g.update(r, sets[r], now); err != nil {
				t.Fatalf("epoch %d: %v", now, err)
			}
		}
		if err := g.CheckInvariants(now); err != nil {
			t.Fatalf("epoch %d: %v", now, err)
		}
		if rng.Intn(10) == 0 {
			g.RemoveNode(pool[rng.Intn(len(pool))])
			if err := g.CheckInvariants(now); err != nil {
				t.Fatalf("epoch %d after removal: %v", now, err)
			}
		}
	}
}
