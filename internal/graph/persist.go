package graph

import (
	"fmt"
	"slices"

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
//
// Nodes are written in sorted tag order and each node's parent edges as
// its span stands (ascending parent tag), so equal graphs always produce
// identical bytes.

const sectionGraph = "GRPH"

// Minimum encoded sizes, used to validate counts against the remaining
// snapshot body before allocating.
const (
	nodeEncSize = 8 + 1 + 8*8 // tag + level + eight 64-bit fields
	edgeEncSize = 7 * 8       // seven 64-bit fields
)

// EncodeState appends the graph's complete cumulative state to e.
func (g *Graph) EncodeState(e *checkpoint.Encoder) {
	e.Section(sectionGraph)
	e.Uint64(uint64(g.cfg.HistorySize))

	tags := make([]model.Tag, 0, len(g.nodes))
	for t := range g.nodes {
		tags = append(tags, t)
	}
	slices.Sort(tags)

	e.Uint64(uint64(len(tags)))
	for _, t := range tags {
		n := g.nodes[t]
		e.Uint64(uint64(n.Tag))
		e.Uint8(uint8(n.Level))
		e.Int64(int64(n.RecentColor))
		e.Int64(int64(n.SeenAt))
		e.Int64(int64(n.NewColorAt))
		confirmed := model.NoTag
		if n.ConfirmedEdge != nil {
			confirmed = n.ConfirmedEdge.Parent.Tag
		}
		e.Uint64(uint64(confirmed))
		e.Int64(int64(n.ConfirmedAt))
		e.Int64(int64(n.Conflicts))
		e.Int64(int64(n.BetaEither))
		e.Int64(int64(n.BetaOne))
	}

	e.Uint64(uint64(g.edges))
	for _, t := range tags {
		for _, ed := range g.nodes[t].parents {
			e.Uint64(uint64(ed.Parent.Tag))
			e.Uint64(uint64(ed.Child.Tag))
			e.Uint64(ed.History.bits)
			e.Int64(int64(ed.UpdateTime))
			e.Int64(int64(ed.CreatedAt))
			e.Int64(int64(ed.conflictedAt))
			e.Int64(int64(ed.betaOneAt))
		}
	}
}

// DecodeState reconstructs a graph from d. The returned graph is freshly
// built and fully validated; on any error the caller holds no partially
// restored state.
func DecodeState(d *checkpoint.Decoder) (*Graph, error) {
	d.Section(sectionGraph)
	hist := d.Uint64()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if hist < 1 || hist > MaxHistorySize {
		return nil, fmt.Errorf("%w: graph history size %d", checkpoint.ErrCorrupt, hist)
	}
	g, err := New(Config{HistorySize: int(hist)})
	if err != nil {
		return nil, err
	}

	type confirm struct {
		child  model.Tag
		parent model.Tag
	}
	var confirms []confirm
	nNodes := d.Count(nodeEncSize)
	for i := 0; i < nNodes; i++ {
		tag := model.Tag(d.Uint64())
		lvl := model.Level(d.Uint8())
		recent := model.LocationID(d.Int64())
		seenAt := model.Epoch(d.Int64())
		newColorAt := model.Epoch(d.Int64())
		confirmedParent := model.Tag(d.Uint64())
		confirmedAt := model.Epoch(d.Int64())
		conflicts := d.Int64()
		betaEither := d.Int64()
		betaOne := d.Int64()
		if d.Err() != nil {
			return nil, d.Err()
		}
		if tag == model.NoTag {
			return nil, fmt.Errorf("%w: graph node %d has zero tag", checkpoint.ErrCorrupt, i)
		}
		if !lvl.Valid() {
			return nil, fmt.Errorf("%w: graph node %d has invalid level %d", checkpoint.ErrCorrupt, tag, lvl)
		}
		if g.nodes[tag] != nil {
			return nil, fmt.Errorf("%w: duplicate graph node %d", checkpoint.ErrCorrupt, tag)
		}
		n := g.addNode(tag, lvl)
		n.RecentColor = recent
		n.SeenAt = seenAt
		n.NewColorAt = newColorAt
		n.ConfirmedAt = confirmedAt
		n.Conflicts = int(conflicts)
		n.BetaEither = int(betaEither)
		n.BetaOne = int(betaOne)
		if confirmedParent != model.NoTag {
			confirms = append(confirms, confirm{child: tag, parent: confirmedParent})
		}
	}

	nEdges := d.Count(edgeEncSize)
	for i := 0; i < nEdges; i++ {
		ptag := model.Tag(d.Uint64())
		ctag := model.Tag(d.Uint64())
		bits := d.Uint64()
		updateTime := model.Epoch(d.Int64())
		createdAt := model.Epoch(d.Int64())
		conflictedAt := model.Epoch(d.Int64())
		betaOneAt := model.Epoch(d.Int64())
		if d.Err() != nil {
			return nil, d.Err()
		}
		parent, child := g.nodes[ptag], g.nodes[ctag]
		if parent == nil || child == nil {
			return nil, fmt.Errorf("%w: graph edge %d→%d references missing node", checkpoint.ErrCorrupt, ptag, ctag)
		}
		if parent.Level <= child.Level {
			return nil, fmt.Errorf("%w: graph edge %d→%d does not point downward", checkpoint.ErrCorrupt, ptag, ctag)
		}
		if child.ParentEdge(ptag) != nil {
			return nil, fmt.Errorf("%w: duplicate graph edge %d→%d", checkpoint.ErrCorrupt, ptag, ctag)
		}
		if hist < 64 && bits>>hist != 0 {
			return nil, fmt.Errorf("%w: graph edge %d→%d history bits exceed size %d", checkpoint.ErrCorrupt, ptag, ctag, hist)
		}
		ed := g.AddEdge(parent, child, createdAt)
		ed.History.bits = bits
		ed.UpdateTime = updateTime
		ed.conflictedAt = conflictedAt
		ed.betaOneAt = betaOneAt
	}

	for _, c := range confirms {
		ed := g.nodes[c.child].ParentEdge(c.parent)
		if ed == nil {
			return nil, fmt.Errorf("%w: node %d confirmed parent %d has no edge", checkpoint.ErrCorrupt, c.child, c.parent)
		}
		g.nodes[c.child].ConfirmedEdge = ed
	}

	if err := g.CheckInvariants(model.EpochNone); err != nil {
		return nil, fmt.Errorf("%w: restored graph: %v", checkpoint.ErrCorrupt, err)
	}
	return g, nil
}
