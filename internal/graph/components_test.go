package graph

import (
	"math/rand"
	"slices"
	"testing"

	"spire/internal/epc"
	"spire/internal/model"
)

func TestComponentsSingletonAndUnion(t *testing.T) {
	g := mustGraph(t)
	seq := mustSeq(t)
	p, _ := seq.Next(model.LevelPallet)
	c1, _ := seq.Next(model.LevelCase)
	c2, _ := seq.Next(model.LevelCase)

	r := &model.Reader{ID: 1, Location: 7}
	if err := g.Update(r, []model.Tag{p}, 1); err != nil {
		t.Fatal(err)
	}
	comps := g.Components(1)
	if len(comps) != 1 || comps[0].Len() != 1 || comps[0].ID() != p {
		t.Fatalf("singleton component wrong: %+v", comps)
	}
	if got := g.Node(p).Component(); got != comps[0] {
		t.Fatalf("Node.Component mismatch")
	}

	// Reading the cases alongside the pallet links all three into one
	// component whose id is the smallest member tag.
	if err := g.Update(r, []model.Tag{p, c1, c2}, 2); err != nil {
		t.Fatal(err)
	}
	comps = g.Components(2)
	if len(comps) != 1 {
		t.Fatalf("want 1 merged component, got %d", len(comps))
	}
	c := comps[0]
	if c.Len() != 3 {
		t.Fatalf("merged component has %d members, want 3", c.Len())
	}
	want := min(p, min(c1, c2))
	if c.ID() != want {
		t.Fatalf("component id %d, want min member tag %d", c.ID(), want)
	}
	if c.DirtyAt() != 2 {
		t.Fatalf("component dirtyAt %d, want 2", c.DirtyAt())
	}
	if err := g.CheckInvariants(2); err != nil {
		t.Fatal(err)
	}
}

func TestComponentsDirtyOnRead(t *testing.T) {
	g := mustGraph(t)
	seq := mustSeq(t)
	p, _ := seq.Next(model.LevelPallet)
	r := &model.Reader{ID: 1, Location: 7}
	if err := g.Update(r, []model.Tag{p}, 1); err != nil {
		t.Fatal(err)
	}
	c := g.Node(p).Component()
	if c.DirtyAt() != 1 {
		t.Fatalf("dirtyAt %d after read at 1", c.DirtyAt())
	}
	// No reads: the component stays clean at its old epoch.
	if got := g.Node(p).Component(); got != c || c.DirtyAt() != 1 {
		t.Fatalf("untouched component changed: dirtyAt %d", c.DirtyAt())
	}
	// A re-read (even same color) dirties it again.
	if err := g.Update(r, []model.Tag{p}, 9); err != nil {
		t.Fatal(err)
	}
	if c.DirtyAt() != 9 {
		t.Fatalf("dirtyAt %d after re-read at 9, want 9", c.DirtyAt())
	}
}

func TestComponentsSplitOnEdgeRemoval(t *testing.T) {
	g := mustGraph(t)
	seq := mustSeq(t)
	p, _ := seq.Next(model.LevelPallet)
	c1, _ := seq.Next(model.LevelCase)
	c2, _ := seq.Next(model.LevelCase)
	r := &model.Reader{ID: 1, Location: 7}
	if err := g.Update(r, []model.Tag{p, c1, c2}, 1); err != nil {
		t.Fatal(err)
	}
	if n := len(g.Components(1)); n != 1 {
		t.Fatalf("want 1 component, got %d", n)
	}

	// Dropping both edges of c2 splits it off; the rebuild happens lazily
	// at the next Components call and stamps both halves dirty.
	n2 := g.Node(c2)
	// Copy: RemoveEdge edits the spans.
	edges := slices.Concat(n2.Parents(), n2.Children())
	for _, e := range edges {
		g.RemoveEdge(e)
	}
	comps := g.Components(5)
	if len(comps) != 2 {
		t.Fatalf("want 2 components after split, got %d", len(comps))
	}
	for _, c := range comps {
		if c.DirtyAt() != 5 {
			t.Fatalf("rebuilt component %d dirtyAt %d, want rebuild epoch 5", c.ID(), c.DirtyAt())
		}
	}
	if g.Node(c2).Component().Len() != 1 {
		t.Fatalf("split-off node not a singleton")
	}
	if err := g.CheckInvariants(5); err != nil {
		t.Fatal(err)
	}
}

func TestComponentsNodeRemoval(t *testing.T) {
	g := mustGraph(t)
	seq := mustSeq(t)
	p, _ := seq.Next(model.LevelPallet)
	c1, _ := seq.Next(model.LevelCase)
	r := &model.Reader{ID: 1, Location: 7}
	if err := g.Update(r, []model.Tag{p, c1}, 1); err != nil {
		t.Fatal(err)
	}
	g.RemoveNode(p)
	comps := g.Components(3)
	if len(comps) != 1 || comps[0].ID() != c1 || comps[0].Len() != 1 {
		t.Fatalf("after removing %d want singleton %d, got %+v", p, c1, comps)
	}
	if err := g.CheckInvariants(3); err != nil {
		t.Fatal(err)
	}
	// Removing the last node leaves an empty partition.
	g.RemoveNode(c1)
	if comps := g.Components(4); len(comps) != 0 {
		t.Fatalf("want empty partition, got %d components", len(comps))
	}
}

func TestComponentsSortedAndStableIDs(t *testing.T) {
	g := mustGraph(t)
	seq := mustSeq(t)
	r1 := &model.Reader{ID: 1, Location: 1}
	r2 := &model.Reader{ID: 2, Location: 2}
	var g1, g2 []model.Tag
	p1, _ := seq.Next(model.LevelPallet)
	p2, _ := seq.Next(model.LevelPallet)
	for i := 0; i < 3; i++ {
		c, _ := seq.Next(model.LevelCase)
		g1 = append(g1, c)
		c2, _ := seq.Next(model.LevelCase)
		g2 = append(g2, c2)
	}
	g1 = append(g1, p1)
	g2 = append(g2, p2)
	if err := g.Update(r1, g1, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Update(r2, g2, 1); err != nil {
		t.Fatal(err)
	}
	comps := g.Components(1)
	if len(comps) != 2 {
		t.Fatalf("want 2 components, got %d", len(comps))
	}
	if !(comps[0].ID() < comps[1].ID()) {
		t.Fatalf("components not sorted by id: %d, %d", comps[0].ID(), comps[1].ID())
	}
	before := []model.Tag{comps[0].ID(), comps[1].ID()}
	// Re-reading the same sets changes nothing structural: ids stable.
	if err := g.Update(r1, g1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.Update(r2, g2, 2); err != nil {
		t.Fatal(err)
	}
	comps = g.Components(2)
	if comps[0].ID() != before[0] || comps[1].ID() != before[1] {
		t.Fatalf("component ids drifted: %v -> [%d %d]", before, comps[0].ID(), comps[1].ID())
	}
}

// TestComponentsRandomizedInvariant drives a random mutation mix and
// validates the partition via CheckInvariants plus an independent BFS
// count after every epoch.
func TestComponentsRandomizedInvariant(t *testing.T) {
	g := mustGraph(t)
	seq := mustSeq(t)
	rng := rand.New(rand.NewSource(17))
	var pool []model.Tag
	for i := 0; i < 8; i++ {
		p, _ := seq.Next(model.LevelPallet)
		pool = append(pool, p)
		for j := 0; j < 3; j++ {
			c, _ := seq.Next(model.LevelCase)
			pool = append(pool, c)
		}
	}
	readers := []*model.Reader{
		{ID: 1, Location: 1},
		{ID: 2, Location: 2},
		{ID: 3, Location: 3},
	}
	for now := model.Epoch(1); now <= 60; now++ {
		// Each tag is read by at most one reader per epoch (deduplication
		// guarantees this upstream of the graph in the real pipeline).
		sets := make([][]model.Tag, len(readers))
		for _, tg := range pool {
			if pick := rng.Intn(len(readers) + 1); pick < len(readers) {
				sets[pick] = append(sets[pick], tg)
			}
		}
		for i, r := range readers {
			if err := g.Update(r, sets[i], now); err != nil {
				t.Fatal(err)
			}
		}
		if now%7 == 0 && g.Len() > 0 {
			g.RemoveNode(pool[rng.Intn(len(pool))])
		}
		comps := g.Components(now)
		if err := g.CheckInvariants(now); err != nil {
			t.Fatalf("epoch %d: %v", now, err)
		}
		total := 0
		seen := make(map[model.Tag]bool)
		for _, c := range comps {
			total += c.Len()
			for _, m := range c.Members() {
				if seen[m.Tag] {
					t.Fatalf("epoch %d: node %d in two components", now, m.Tag)
				}
				seen[m.Tag] = true
			}
		}
		if total != g.Len() {
			t.Fatalf("epoch %d: partition covers %d of %d nodes", now, total, g.Len())
		}
	}
}

// mustGraph and mustSeq keep the component tests terse.
func mustGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustSeq(t *testing.T) *epc.Sequencer {
	t.Helper()
	seq, err := epc.NewSequencer(3)
	if err != nil {
		t.Fatal(err)
	}
	return seq
}
