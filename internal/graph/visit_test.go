package graph

import (
	"fmt"
	"slices"
	"testing"

	"spire/internal/epc"
	"spire/internal/model"
	"spire/internal/trace"
)

// visitEdgesTwoSided is the step 3-4 walk visitEdges replaced: every edge
// incident to v is visited in full, so an edge whose two ends are both
// read is visited from each end. It is the oracle
// FuzzUpdateVisitOnceMatchesTwoSided holds the skipping walk to.
func (g *Graph) visitEdgesTwoSided(v *Node, c model.LocationID, now model.Epoch, reader model.ReaderID, confirmTop model.Tag, confirmParent map[model.Tag]model.Tag) {
	for i := len(v.parents) - 1; i >= 0; i-- {
		g.visitEdge(v.parents[i], v, c, now, reader, confirmTop, confirmParent)
	}
	for i := len(v.children) - 1; i >= 0; i-- {
		g.visitEdge(v.children[i], v, c, now, reader, confirmTop, confirmParent)
	}
}

// visitReaders are the fuzz target's readers: two at one location, a
// belt that confirms cases, a plain reader at the belt's location, and a
// shipping door that confirms pallets.
var visitReaders = []*model.Reader{
	{ID: 1, Location: 0, Period: 1},
	{ID: 2, Location: 0, Period: 1},
	{ID: 3, Location: 1, Period: 1, Confirming: true, ConfirmLevel: model.LevelCase},
	{ID: 4, Location: 1, Period: 1},
	{ID: 5, Location: 2, Period: 1, Confirming: true, ConfirmLevel: model.LevelPallet},
}

// visitPool is the fuzz target's tag pool: 3 pallets, 6 cases and 15
// items, few enough that the decoded reading sets overlap densely.
func visitPool(tb testing.TB) []model.Tag {
	tb.Helper()
	var pool []model.Tag
	for i, n := range [model.NumLevels]int{15, 6, 3} {
		for s := 1; s <= n; s++ {
			g, err := epc.Encode(epc.Identity{Level: model.Level(i), Company: 2, Serial: uint32(s)})
			if err != nil {
				tb.Fatal(err)
			}
			pool = append(pool, g)
		}
	}
	return pool
}

// compareVisitGraphs requires got and want to hold the same edges with
// the same statistics, the same per-node Fig. 4 counters, the same
// decision counts apart from the visits, and the same traced records.
func compareVisitGraphs(got, want *Graph, gotRec, wantRec *trace.Recorder, pool []model.Tag) error {
	if got.Len() != want.Len() || got.EdgeCount() != want.EdgeCount() {
		return fmt.Errorf("%d nodes and %d edges, oracle %d and %d", got.Len(), got.EdgeCount(), want.Len(), want.EdgeCount())
	}
	gs, ws := got.stats, want.stats
	gs.EdgesVisited, ws.EdgesVisited = 0, 0
	if gs != ws {
		return fmt.Errorf("decisions %+v, oracle %+v", gs, ws)
	}
	for tag, w := range want.nodes {
		n := got.nodes[tag]
		if n == nil {
			return fmt.Errorf("node %d missing", tag)
		}
		if n.Conflicts != w.Conflicts || n.BetaEither != w.BetaEither || n.BetaOne != w.BetaOne || n.ConfirmedAt != w.ConfirmedAt {
			return fmt.Errorf("node %d: conflicts %d beta %d/%d confirmed at %d, oracle %d %d/%d %d",
				tag, n.Conflicts, n.BetaOne, n.BetaEither, n.ConfirmedAt, w.Conflicts, w.BetaOne, w.BetaEither, w.ConfirmedAt)
		}
		if (n.ConfirmedEdge == nil) != (w.ConfirmedEdge == nil) ||
			n.ConfirmedEdge != nil && n.ConfirmedEdge.Parent.Tag != w.ConfirmedEdge.Parent.Tag {
			return fmt.Errorf("node %d: confirmed edge differs from the oracle's", tag)
		}
		if len(n.parents) != len(w.parents) {
			return fmt.Errorf("node %d: %d parent edges, oracle %d", tag, len(n.parents), len(w.parents))
		}
		for i, we := range w.parents {
			e := n.parents[i]
			if e.Parent.Tag != we.Parent.Tag || e.History != we.History || e.UpdateTime != we.UpdateTime ||
				e.CreatedAt != we.CreatedAt || e.conflictedAt != we.conflictedAt || e.betaOneAt != we.betaOneAt {
				return fmt.Errorf("edge %d→%d: history %032b updated %d created %d conflicted %d β1 %d, oracle %d→%d %032b %d %d %d %d",
					e.Parent.Tag, tag, e.History, e.UpdateTime, e.CreatedAt, e.conflictedAt, e.betaOneAt,
					we.Parent.Tag, tag, we.History, we.UpdateTime, we.CreatedAt, we.conflictedAt, we.betaOneAt)
			}
		}
	}
	for _, g := range pool {
		if !slices.Equal(gotRec.TagRecords(g), wantRec.TagRecords(g)) {
			return fmt.Errorf("tag %d: traced records differ from the oracle's", g)
		}
	}
	return nil
}

// FuzzUpdateVisitOnceMatchesTwoSided holds update, which skips an edge's
// no-op second visit, to the two-sided walk on twin graphs. The input
// decodes into a run of deduplicated epochs, each of one to four reader
// groups (a group's tag set is a 24-bit mask over the pool, less the tags
// an earlier group of the epoch read), or into a node removal between
// epochs. A group's reader may confirm; a tag in no group goes unread.
// After every group the two graphs must match in every edge and its
// history and epoch stamps, every node's Fig. 4 counters, the decision
// counts and the traced records, and after every epoch both must pass
// CheckInvariants.
func FuzzUpdateVisitOnceMatchesTwoSided(f *testing.F) {
	for _, seed := range [][]byte{
		{0, 0, 0xff, 0xff, 0xff, 0, 0, 0xff, 0xff, 0xff},                      // one reader, then again
		{1, 0, 0x0f, 0xf0, 0x0f, 1, 0xf0, 0x0f, 0xf0, 0, 0, 0xff, 0xff, 0xff}, // two readers at one location
		{1, 0, 0xff, 0xff, 0xff, 2, 0x03, 0, 0x20, 0, 0, 0xff, 0xff, 0xff},    // a belt confirms one case
		{0, 0, 0xff, 0xff, 0xff, 1, 2, 0x0f, 0x0f, 0x0f, 0, 0xff, 0xff, 0xff}, // a belt takes part of a dock's stock
		{0, 0, 0xff, 0xff, 0xff, 1, 0, 0xff, 0x7f, 0, 1, 0, 0x80, 0xff},       // items, then their cases
		{0, 0, 0xff, 0xff, 0xff, 7, 17, 0, 1, 0x55, 0x55, 0x55, 0, 4, 0xff, 0xff, 0xff},
		{3, 4, 0xff, 0xff, 0xff, 2, 0xff, 0x3f, 0x20, 1, 0xff, 0, 0, 0, 0xff, 0xff, 0xff},
		{0, 0, 0x01, 0x80, 0, 1, 3, 0, 0x80, 0, 0, 0x01, 0, 0}, // a case moves away from its item
	} {
		f.Add(seed)
	}
	pool := visitPool(f)
	f.Fuzz(func(t *testing.T, data []byte) { runVisitOnce(t, pool, data) })
}

// runVisitOnce is FuzzUpdateVisitOnceMatchesTwoSided's body.
func runVisitOnce(t *testing.T, pool []model.Tag, data []byte) {
	got, want := New(), New()
	gotRec, wantRec := trace.New(trace.Config{All: true}), trace.New(trace.Config{All: true})
	got.SetTracer(gotRec)
	want.SetTracer(wantRec)
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	for now := model.Epoch(1); len(data) > 0; now++ {
		op := next()
		if op%8 == 7 {
			g := pool[int(next())%len(pool)]
			got.RemoveNode(g)
			want.RemoveNode(g)
			continue
		}
		got.stats, want.stats = UpdateStats{}, UpdateStats{}
		var taken uint32
		for k := 0; k <= int(op%4); k++ {
			r := visitReaders[int(next())%len(visitReaders)]
			mask := (uint32(next()) | uint32(next())<<8 | uint32(next())<<16) &^ taken
			taken |= mask
			var tags []model.Tag
			for i, g := range pool {
				if mask>>i&1 != 0 {
					tags = append(tags, g)
				}
			}
			if err := got.update(r, tags, now); err != nil {
				t.Fatal(err)
			}
			if err := want.updateWalk(r, tags, now, (*Graph).visitEdgesTwoSided); err != nil {
				t.Fatal(err)
			}
			if err := compareVisitGraphs(got, want, gotRec, wantRec, pool); err != nil {
				t.Fatalf("epoch %d, group %d (reader %d): %v", now, k, r.ID, err)
			}
		}
		for _, g := range [2]*Graph{got, want} {
			if err := g.CheckInvariants(now); err != nil {
				t.Fatalf("epoch %d: %v", now, err)
			}
		}
	}
}

// TestUpdateVisitsEachEdgeOnce counts the step 3-4 work of a steady epoch
// of BenchmarkUpdateSteadyState's 20-case shelf: the 8 000 case→item
// edges are each visited once, where the two-sided walk visits each from
// both ends.
func TestUpdateVisitsEachEdgeOnce(t *testing.T) {
	for _, tc := range []struct {
		name string
		walk edgeWalk
		want int64
	}{{"visit once", (*Graph).visitEdges, 8000}, {"two-sided", (*Graph).visitEdgesTwoSided, 16000}} {
		g, reader, tags := buildShelf(t, 20, 20)
		if g.EdgeCount() != 8000 {
			t.Fatalf("shelf holds %d edges, want 8000", g.EdgeCount())
		}
		g.stats = UpdateStats{}
		if err := g.updateWalk(reader, tags, 2, tc.walk); err != nil {
			t.Fatal(err)
		}
		if got := g.LastStats().EdgesVisited; got != tc.want {
			t.Errorf("%s: a steady epoch visits %d edges, want %d", tc.name, got, tc.want)
		}
	}
}
