package graph

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"spire/internal/model"
)

// The edge spans: ordering under any insertion order, removal of the
// element under the iterator, and the memory accounting derived from the
// struct sizes.

// TestSizeConstantsFollowStructs fails when Node or Edge grows (or
// shrinks) without NodeSizeBytes / EdgeSizeBytes following.
func TestSizeConstantsFollowStructs(t *testing.T) {
	if got := int(unsafe.Sizeof(Node{})); NodeSizeBytes != got {
		t.Errorf("NodeSizeBytes = %d, want unsafe.Sizeof(Node{}) = %d", NodeSizeBytes, got)
	}
	slot := int(unsafe.Sizeof((*Edge)(nil)))
	if got := int(unsafe.Sizeof(Edge{})) + 2*slot; EdgeSizeBytes != got {
		t.Errorf("EdgeSizeBytes = %d, want unsafe.Sizeof(Edge{}) + two span slots = %d", EdgeSizeBytes, got)
	}
}

func spanTags(n *Node) (parents, children []model.Tag) {
	for _, e := range n.Parents() {
		parents = append(parents, e.Parent.Tag)
	}
	for _, e := range n.Children() {
		children = append(children, e.Child.Tag)
	}
	return parents, children
}

// TestAddEdgeOrderIndependent inserts the same edge set in ascending,
// descending and shuffled order: the spans and the encoded checkpoint
// must come out identical.
func TestAddEdgeOrderIndependent(t *testing.T) {
	const nCases, nItems = 9, 17
	type pair struct{ parent, child model.Tag }
	var cases, items []model.Tag
	var pairs []pair
	for c := uint32(1); c <= nCases; c++ {
		cases = append(cases, tag(t, model.LevelCase, c))
	}
	for i := uint32(1); i <= nItems; i++ {
		items = append(items, tag(t, model.LevelItem, i))
	}
	for _, c := range cases {
		for _, i := range items {
			pairs = append(pairs, pair{c, i})
		}
	}
	build := func(order []pair) *Graph {
		g := newGraph(t)
		for _, c := range cases {
			g.addNode(c, model.LevelCase)
		}
		for _, i := range items {
			g.addNode(i, model.LevelItem)
		}
		for _, p := range order {
			g.AddEdge(g.Node(p.parent), g.Node(p.child), 1)
		}
		if err := g.CheckInvariants(1); err != nil {
			t.Fatal(err)
		}
		return g
	}
	descending := make([]pair, len(pairs))
	for i, p := range pairs {
		descending[len(pairs)-1-i] = p
	}
	shuffled := append([]pair(nil), pairs...)
	rand.New(rand.NewSource(20)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})

	ref := build(pairs)
	refBytes := encodeGraph(ref)
	for name, order := range map[string][]pair{"descending": descending, "shuffled": shuffled} {
		g := build(order)
		for _, tg := range slices.Concat(cases, items) {
			wantP, wantC := spanTags(ref.Node(tg))
			gotP, gotC := spanTags(g.Node(tg))
			if !slices.Equal(gotP, wantP) || !slices.Equal(gotC, wantC) {
				t.Fatalf("%s: spans of %d differ from ascending insertion: %v/%v vs %v/%v",
					name, tg, gotP, gotC, wantP, wantC)
			}
		}
		if !bytes.Equal(encodeGraph(g), refBytes) {
			t.Fatalf("%s: encoded checkpoint differs from ascending insertion", name)
		}
	}
	if p, _ := spanTags(ref.Node(items[0])); !slices.Equal(p, cases) {
		t.Fatalf("parents span %v, want the cases ascending %v", p, cases)
	}
}

// TestRemovalUnderIteration drops every edge of a high-degree node from
// inside the walk over that node's own spans — by color mismatch, by
// special-reader confirmation, and by RemoveNode — and checks the
// invariants after each.
func TestRemovalUnderIteration(t *testing.T) {
	const fan = 70
	serials := func(lvl model.Level, from uint32) []model.Tag {
		out := make([]model.Tag, fan)
		for i := range out {
			out[i] = tag(t, lvl, from+uint32(i))
		}
		return out
	}

	t.Run("color-mismatch", func(t *testing.T) {
		g := newGraph(t)
		pallets, items := serials(model.LevelPallet, 1), serials(model.LevelItem, 1)
		c := tag(t, model.LevelCase, 1)
		all := slices.Concat([]model.Tag{c}, pallets, items)
		mustUpdate(t, g, dockReader, 1, all...)
		nc := g.Node(c)
		if nc.NumParents() != fan || nc.NumChildren() != fan {
			t.Fatalf("setup: case has %d parents, %d children, want %d each", nc.NumParents(), nc.NumChildren(), fan)
		}
		// Everything but the case moves to C; then the case is read at A:
		// one Update walks its spans and drops all 140 edges.
		mustUpdate(t, g, packReader, 2, all[1:]...)
		if nc.NumParents() != fan || nc.NumChildren() != fan {
			t.Fatal("edges to an unobserved partner must survive")
		}
		mustUpdate(t, g, dockReader, 2, c)
		if nc.NumParents() != 0 || nc.NumChildren() != 0 {
			t.Fatalf("case keeps %d parents, %d children after color mismatch", nc.NumParents(), nc.NumChildren())
		}
	})

	t.Run("confirmation-then-remove-node", func(t *testing.T) {
		g := newGraph(t)
		pallets, cases := serials(model.LevelPallet, 1), serials(model.LevelCase, 1)
		it := tag(t, model.LevelItem, 1)
		mustUpdate(t, g, dockReader, 1, slices.Concat([]model.Tag{it}, pallets, cases)...)
		c := cases[fan/2]
		ni, nc := g.Node(it), g.Node(c)
		if ni.NumParents() != fan || nc.NumParents() != fan {
			t.Fatalf("setup: item has %d parents, case %d, want %d each", ni.NumParents(), nc.NumParents(), fan)
		}
		// The belt confirms c as a top-level container holding the item:
		// the item's walk drops its 69 other parents, the case's walk all
		// 70 of its own.
		mustUpdate(t, g, beltReader, 2, c, it)
		if ni.NumParents() != 1 || ni.ConfirmedEdge == nil || ni.ConfirmedEdge.Parent != nc {
			t.Fatalf("item keeps %d parents, confirmed %v", ni.NumParents(), ni.ConfirmedEdge)
		}
		if nc.NumParents() != 0 || nc.NumChildren() != 1 {
			t.Fatalf("confirmed case keeps %d parents, %d children", nc.NumParents(), nc.NumChildren())
		}

		other := g.Node(cases[0])
		if other.NumParents() < 64 {
			t.Fatalf("setup: want a node with >= 64 edges, has %d", other.NumParents())
		}
		before := g.EdgeCount()
		g.RemoveNode(other.Tag)
		if g.Node(other.Tag) != nil || g.EdgeCount() != before-fan {
			t.Fatalf("RemoveNode left the node or %d of its edges", g.EdgeCount()-(before-fan))
		}
		if err := g.CheckInvariants(2); err != nil {
			t.Fatal(err)
		}
	})
}
