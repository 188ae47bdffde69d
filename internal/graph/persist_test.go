package graph

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"spire/internal/checkpoint"
	"spire/internal/model"
)

// churnedGraph runs random reader sets with occasional node removals, the
// property suite's workload, and returns the graph after epochs epochs.
func churnedGraph(t *testing.T, seed int64, epochs model.Epoch) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	readers := []*model.Reader{dockReader, beltReader, packReader}
	g := New()
	var pool []model.Tag
	for s := uint32(1); s <= 20; s++ {
		pool = append(pool, tag(t, model.LevelItem, s), tag(t, model.LevelCase, s), tag(t, model.LevelPallet, s))
	}
	for now := model.Epoch(1); now <= epochs; now++ {
		sets := map[*model.Reader][]model.Tag{}
		for _, pi := range rng.Perm(len(pool))[:40] {
			if rng.Float64() < 0.5 {
				r := readers[rng.Intn(len(readers))]
				sets[r] = append(sets[r], pool[pi])
			}
		}
		for _, r := range readers {
			if err := g.update(r, sets[r], now); err != nil {
				t.Fatalf("epoch %d: %v", now, err)
			}
		}
		if rng.Intn(5) == 0 {
			g.RemoveNode(pool[rng.Intn(len(pool))])
		}
	}
	return g
}

func decodeGraph(snap []byte) (*Graph, error) {
	d, err := checkpoint.NewDecoder(bytes.NewReader(snap))
	if err != nil {
		return nil, err
	}
	return DecodeState(d)
}

// TestDecodeRebuildsInOnePass: a restored graph re-encodes to the same
// bytes, every span is allocated at its length, and the component
// partition matches the original's.
func TestDecodeRebuildsInOnePass(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		g := churnedGraph(t, seed, 120)
		snap := encodeGraph(g)
		r, err := decodeGraph(snap)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !bytes.Equal(encodeGraph(r), snap) {
			t.Fatalf("seed %d: re-encoded graph differs", seed)
		}
		for _, n := range r.order {
			if cap(n.parents) != len(n.parents) || cap(n.children) != len(n.children) {
				t.Fatalf("seed %d: node %d spans %d/%d and %d/%d (len/cap)", seed, n.Tag,
					len(n.parents), cap(n.parents), len(n.children), cap(n.children))
			}
		}
		want, got := g.Components(200), r.Components(200)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d components, want %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i].ID() != want[i].ID() || got[i].Len() != want[i].Len() {
				t.Fatalf("seed %d: component %d is %d (%d members), want %d (%d)", seed, i,
					got[i].ID(), got[i].Len(), want[i].ID(), want[i].Len())
			}
		}
	}
}

// rawGraph is a hand-written graph section: an item and a case, the item
// with one parent edge to the case, confirmed. Tests bend one field.
type rawGraph struct {
	tagSteps  []uint64
	edges     uint64
	levels    [2]uint8
	step      uint64 // the item's parent, as a rank step from -1
	bits      uint64
	confirmed uint64
}

func (r rawGraph) encode() []byte {
	e := checkpoint.NewEncoder()
	e.Section(sectionGraph)
	e.Uvarint(uint64(len(r.tagSteps)))
	for _, s := range r.tagSteps {
		e.Uvarint(s)
	}
	e.Uvarint(r.edges)
	for i, lvl := range r.levels {
		e.Uint8(lvl)
		e.Varint(int64(locA))
		e.Epoch(1)
		e.Epoch(1)
		e.Epoch(model.EpochNone)
		e.Varint(0)
		e.Varint(0)
		e.Varint(0)
		if i > 0 {
			e.Uvarint(0) // the case has no parents
			e.Uvarint(0)
			continue
		}
		e.Uvarint(1)
		e.Uvarint(r.step)
		e.Uvarint(r.bits)
		for range 4 {
			e.Epoch(model.EpochNone)
		}
		e.Uvarint(r.confirmed)
	}
	var buf bytes.Buffer
	if err := e.Flush(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// TestDecodeRejectsCorruptGraph: each malformed field of a graph section
// is ErrCorrupt, including the HistorySize bound on an edge's bits.
func TestDecodeRejectsCorruptGraph(t *testing.T) {
	item, cs := tag(t, model.LevelItem, 1), tag(t, model.LevelCase, 1)
	ok := rawGraph{
		tagSteps: []uint64{uint64(item), uint64(cs - item)},
		edges:    1,
		levels:   [2]uint8{uint8(model.LevelItem), uint8(model.LevelCase)},
		step:     2, bits: 1, confirmed: 1,
	}
	g, err := decodeGraph(ok.encode())
	if err != nil {
		t.Fatalf("valid section: %v", err)
	}
	if e := g.Node(item).ConfirmedEdge; e == nil || e.Parent.Tag != cs || g.Node(cs).NumChildren() != 1 {
		t.Fatal("valid section decoded without its confirmed edge")
	}
	for name, bend := range map[string]func(*rawGraph){
		"history beyond size":  func(r *rawGraph) { r.bits = 1 << HistorySize },
		"zero parent step":     func(r *rawGraph) { r.step = 0 },
		"parent past the end":  func(r *rawGraph) { r.step = 3 },
		"confirmed past span":  func(r *rawGraph) { r.confirmed = 2 },
		"edge count too high":  func(r *rawGraph) { r.edges = 2 },
		"edge count too low":   func(r *rawGraph) { r.edges = 0 },
		"invalid level":        func(r *rawGraph) { r.levels[0] = 7 },
		"edge pointing upward": func(r *rawGraph) { r.levels[1] = uint8(model.LevelItem) },
		"repeated tag":         func(r *rawGraph) { r.tagSteps[1] = 0 },
	} {
		r := ok
		r.tagSteps = append([]uint64(nil), ok.tagSteps...)
		bend(&r)
		if _, err := decodeGraph(r.encode()); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
}

// TestCheckInvariantsCatches breaks one invariant at a time on a small
// graph and requires the linear check to name it.
func TestCheckInvariantsCatches(t *testing.T) {
	p := tag(t, model.LevelPallet, 1)
	c1, c2 := tag(t, model.LevelCase, 1), tag(t, model.LevelCase, 2)
	i1, i2 := tag(t, model.LevelItem, 1), tag(t, model.LevelItem, 2)
	build := func() *Graph {
		g := New()
		mustUpdate(t, g, dockReader, 1, p, c1, c2, i1, i2)
		return g
	}
	for name, tc := range map[string]struct {
		bend func(g *Graph)
		want string
	}{
		"parents out of order": {func(g *Graph) {
			ps := g.Node(i1).parents
			ps[0], ps[1] = ps[1], ps[0]
		}, "parents span of"},
		"children out of order": {func(g *Graph) {
			cs := g.Node(c1).children
			cs[0], cs[1] = cs[1], cs[0]
		}, "children span of"},
		"edge only in child": {func(g *Graph) {
			n := g.Node(c1)
			n.children = n.children[1:]
		}, "missing from parent's children"},
		"edge only in parent": {func(g *Graph) {
			n := g.Node(i1)
			n.parents = n.parents[:1]
		}, "missing from child's parents"},
		"edge count":  {func(g *Graph) { g.edges++ }, "edge count"},
		"upward edge": {func(g *Graph) { g.Node(c2).Level = model.LevelPallet }, "does not point downward"},
		"foreign confirmed edge": {func(g *Graph) {
			g.Node(i1).ConfirmedEdge = g.Node(i2).parents[0]
		}, "confirmed edge is not among"},
		"colored twice": {func(g *Graph) {
			n := g.Node(i1)
			g.colored[n.Level][n.RecentColor] = append(g.colored[n.Level][n.RecentColor], n)
		}, "appears 2 times in colored index"},
		"not in its component": {func(g *Graph) {
			c := g.Node(i2).comp
			c.members = c.members[:len(c.members)-1]
		}, "missing from member list"},
		"edge across components": {func(g *Graph) {
			n := g.Node(i2)
			n.comp = &Component{members: []*Node{n}}
			g.compOrder = append(g.compOrder, n.comp)
			c := g.Node(p).comp
			c.members = c.members[:len(c.members)-1]
			c.stale = true
		}, "crosses components"},
	} {
		g := build()
		if err := g.CheckInvariants(1); err != nil {
			t.Fatalf("%s: before the break: %v", name, err)
		}
		tc.bend(g)
		if err := g.CheckInvariants(1); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", name, err, tc.want)
		}
	}
}
