package graph

import (
	"fmt"

	"spire/internal/checkpoint"
	"spire/internal/model"
)

// Snapshot serialization of the time-varying colored graph.
//
// Everything cumulative is captured: node memories (recent color, seen-at,
// confirmation state, adaptive-β counters) and edge evidence
// (recent_colocations bits, update/creation epochs, the idempotency
// stamps). The per-epoch colored index is scratch — beginEpoch rebuilds it
// lazily on the first post-restore update — and the inference scratch
// slots (InferProb/InferStamp) are deliberately NOT serialized: the
// inference pass counter restarts at zero in a new process, so a persisted
// stamp could collide with a fresh pass and leak a stale probability.
// Restored edges carry zeroed scratch, which no pass stamp ever matches.
// Component membership is derived, not stored.
//
// The section lists the node tags in tag order, then each node's record:
// its parent edges as its span stands, each parent by its rank, and the
// confirmed edge by its index in the span. Equal graphs therefore produce
// identical bytes, and restore builds every span in order.

const sectionGraph = "GRPH"

// Minimum encoded sizes, used to validate counts against the remaining
// snapshot body before allocating.
const (
	nodeEncSize = 1 + 1 + 1 + 3 + 3 + 2 // tag, level, color, three epochs, three counters, span length and confirmed index
	edgeEncSize = 1 + 1 + 4             // parent, history, four epochs
)

// EncodeState appends the graph's complete cumulative state to e.
func (g *Graph) EncodeState(e *checkpoint.Encoder) {
	e.Section(sectionGraph)
	g.rankNodes()
	e.Uvarint(uint64(len(g.order)))
	prev := model.NoTag
	for _, n := range g.order {
		e.Tag(prev, n.Tag)
		prev = n.Tag
	}
	e.Uvarint(uint64(g.edges))
	for _, n := range g.order {
		e.Uint8(uint8(n.Level))
		e.Varint(int64(n.RecentColor))
		e.Epoch(n.SeenAt)
		e.Epoch(n.NewColorAt)
		e.Epoch(n.ConfirmedAt)
		e.Varint(int64(n.Conflicts))
		e.Varint(int64(n.BetaEither))
		e.Varint(int64(n.BetaOne))
		e.Uvarint(uint64(len(n.parents)))
		confirmed, rank := 0, int32(-1)
		for i, ed := range n.parents {
			e.Uvarint(uint64(ed.Parent.rank - rank))
			rank = ed.Parent.rank
			e.Uvarint(uint64(ed.History))
			e.Epoch(ed.UpdateTime)
			e.Epoch(ed.CreatedAt)
			e.Epoch(ed.conflictedAt)
			e.Epoch(ed.betaOneAt)
			if ed == n.ConfirmedEdge {
				confirmed = i + 1
			}
		}
		e.Uvarint(uint64(confirmed))
	}
}

// DecodeState reconstructs a graph from d. The returned graph is freshly
// built and fully validated; on any error the caller holds no partially
// restored state.
func DecodeState(d *checkpoint.Decoder) (*Graph, error) {
	d.Section(sectionGraph)
	nNodes := d.Count(nodeEncSize)
	g := New()
	g.nodes = make(map[model.Tag]*Node, nNodes)
	g.order = make([]*Node, nNodes)
	prev := model.NoTag
	for i := range g.order {
		prev = d.Tag(prev)
		n := &Node{Tag: prev, rank: int32(i)}
		g.nodes[prev] = n
		g.order[i] = n
	}
	g.orderFrom = nNodes

	// Each node's parent span is allocated at its length and filled in
	// parent order; children spans are filled afterwards, child by child
	// in tag order, so they too come out ascending.
	edges := make([]Edge, d.Count(edgeEncSize))
	children := make([]int32, nNodes)
	for _, n := range g.order {
		n.Level = model.Level(d.Uint8())
		n.RecentColor = model.LocationID(d.Varint())
		n.SeenAt = d.Epoch()
		n.NewColorAt = d.Epoch()
		n.ConfirmedAt = d.Epoch()
		n.Conflicts = int(d.Varint())
		n.BetaEither = int(d.Varint())
		n.BetaOne = int(d.Varint())
		np := d.Count(edgeEncSize)
		if d.Err() != nil {
			return nil, d.Err()
		}
		if !n.Level.Valid() {
			return nil, fmt.Errorf("%w: graph node %d has invalid level %d", checkpoint.ErrCorrupt, n.Tag, n.Level)
		}
		if np > len(edges)-g.edges {
			return nil, fmt.Errorf("%w: graph node %d lists more edges than the graph", checkpoint.ErrCorrupt, n.Tag)
		}
		n.parents = make([]*Edge, np)
		rank := -1
		for i := range n.parents {
			step := d.Uvarint()
			if err := d.Err(); err != nil {
				return nil, err
			}
			if step == 0 || step >= uint64(nNodes-rank) {
				return nil, fmt.Errorf("%w: graph node %d parent span not ascending", checkpoint.ErrCorrupt, n.Tag)
			}
			rank += int(step)
			bits := d.Uvarint()
			if bits>>HistorySize != 0 {
				return nil, fmt.Errorf("%w: graph edge %d→%d history bits exceed size %d",
					checkpoint.ErrCorrupt, g.order[rank].Tag, n.Tag, HistorySize)
			}
			ed := &edges[g.edges]
			g.edges++
			*ed = Edge{Parent: g.order[rank], Child: n, History: History(bits)}
			ed.UpdateTime = d.Epoch()
			ed.CreatedAt = d.Epoch()
			ed.conflictedAt = d.Epoch()
			ed.betaOneAt = d.Epoch()
			n.parents[i] = ed
			children[rank]++
		}
		if c := d.Uvarint(); c > uint64(np) {
			return nil, fmt.Errorf("%w: node %d confirmed parent %d has no edge", checkpoint.ErrCorrupt, n.Tag, c)
		} else if c > 0 {
			n.ConfirmedEdge = n.parents[c-1]
		}
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if g.edges != len(edges) {
		return nil, fmt.Errorf("%w: graph lists %d edges, its nodes %d", checkpoint.ErrCorrupt, len(edges), g.edges)
	}
	for i, n := range g.order {
		if children[i] > 0 {
			n.children = make([]*Edge, 0, children[i])
		}
	}
	for _, n := range g.order {
		for _, ed := range n.parents {
			ed.Parent.children = append(ed.Parent.children, ed)
		}
	}

	// One repartition of the whole graph labels every component.
	all := &Component{members: g.order}
	for _, n := range g.order {
		n.comp = all
	}
	g.rebuildComponent(all, model.EpochNone)

	if err := g.CheckInvariants(model.EpochNone); err != nil {
		return nil, fmt.Errorf("%w: restored graph: %v", checkpoint.ErrCorrupt, err)
	}
	return g, nil
}
