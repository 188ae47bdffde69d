package graph

import (
	"fmt"

	"spire/internal/epc"
	"spire/internal/model"
	"spire/internal/trace"
)

// update applies one reader's reading set for the current epoch — the
// stream-driven graph update procedure of Fig. 4. UpdateBatch calls it
// once per reader group of an epoch, in any order; after the sets of all
// readers of an epoch have been applied the graph is consistent for that
// epoch. Each tag may be read once per epoch, which is what deduplication
// produces: a second reading is an error, returned with the tags before it
// already colored.
//
// The four steps:
//  1. create and color the nodes for the read tags;
//  2. for nodes that gained a new color, create possible-containment
//     edges to same-colored nodes in the closest layers above and below;
//  3. remove edges whose endpoints are observed in different locations,
//     and edges contradicted by this (special) reader's confirmations;
//  4. update per-edge co-location history, confirmed parents, conflict
//     counts, and the adaptive-β counters.
func (g *Graph) update(reader *model.Reader, tags []model.Tag, now model.Epoch) error {
	return g.updateWalk(reader, tags, now, (*Graph).visitEdges)
}

// edgeWalk is a step 3-4 walk; tests hand updateWalk the two-sided oracle.
type edgeWalk func(g *Graph, v *Node, c model.LocationID, now model.Epoch, reader model.ReaderID, confirmTop model.Tag, confirmParent map[model.Tag]model.Tag)

func (g *Graph) updateWalk(reader *model.Reader, tags []model.Tag, now model.Epoch, walk edgeWalk) error {
	if reader == nil {
		return fmt.Errorf("graph: nil reader")
	}
	c := reader.Location
	if !c.Known() {
		return fmt.Errorf("graph: reader %d has no known location", reader.ID)
	}
	g.beginEpoch(now)
	g.ensureColor(c)

	// Step 1: create and color nodes (Fig. 4 lines 2-6).
	batch := &g.stepNodes
	for lvl := range batch {
		batch[lvl] = batch[lvl][:0]
	}
	for _, tag := range tags {
		lvl, ok := epc.LevelOf(tag)
		if !ok {
			return fmt.Errorf("graph: tag %d carries no valid packaging level", tag)
		}
		n := g.nodes[tag]
		if n == nil {
			n = g.addNode(tag, lvl)
		} else if n.SeenAt == now {
			return fmt.Errorf("graph: tag %d read twice in epoch %d", tag, now)
		}
		// A read tag dirties its component: partial inference must sweep
		// it this epoch.
		n.comp.touch(now)
		if n.RecentColor != c {
			n.NewColorAt = now
		}
		n.RecentColor = c
		n.SeenAt = now
		g.colored[lvl][c] = append(g.colored[lvl][c], n)
		batch[lvl] = append(batch[lvl], n)
		if g.rec.Traces(tag) {
			g.rec.Record(trace.Record{
				Epoch: now, Tag: tag, Mech: trace.MechDirectRead,
				Loc: c, Reader: reader.ID,
			})
		}
	}

	// Special readers scan containers of level reader.ConfirmLevel one at
	// a time. When this set contains exactly one such container, it is
	// confirmed as a top-level container and as the parent of every read
	// object one level below it.
	var confirmTop model.Tag
	var confirmParent map[model.Tag]model.Tag
	if reader.Confirming && reader.ConfirmLevel.Valid() {
		cl := reader.ConfirmLevel
		if len(batch[cl]) == 1 && int(cl) > 0 {
			top := batch[cl][0]
			confirmTop = top.Tag
			confirmParent = make(map[model.Tag]model.Tag, len(batch[cl-1]))
			for _, child := range batch[cl-1] {
				confirmParent[child.Tag] = top.Tag
			}
		}
	}

	// Steps 2-4 (Fig. 4 lines 7-31), per level from the bottom up.
	for lvl := 0; lvl < model.NumLevels; lvl++ {
		for _, v := range batch[lvl] {
			if v.NewColorAt == now {
				g.createEdges(v, c, now)
			}
			// Steps 3 and 4 share the walk over v's incident edges.
			walk(g, v, c, now, reader.ID, confirmTop, confirmParent)
		}
	}
	return nil
}

// createEdges implements step 2 (Fig. 4 lines 9-13): connect v to the
// same-colored nodes in the closest populated layer above and below.
// Cross-layer edges arise naturally when the adjacent layer has no node of
// this color (e.g. an item links to a pallet when its case was missed).
func (g *Graph) createEdges(v *Node, c model.LocationID, now model.Epoch) {
	for la := int(v.Level) + 1; la < model.NumLevels; la++ {
		if nodes := g.colored[la][c]; len(nodes) > 0 {
			for _, p := range nodes {
				if p != v {
					g.AddEdge(p, v, now)
				}
			}
			break
		}
	}
	for lb := int(v.Level) - 1; lb >= 0; lb-- {
		if nodes := g.colored[lb][c]; len(nodes) > 0 {
			for _, ch := range nodes {
				if ch != v {
					g.AddEdge(v, ch, now)
				}
			}
			break
		}
	}
}

// visitEdges implements steps 3 and 4 (Fig. 4 lines 14-31) for one colored
// node. An edge both of whose ends this reader read is met from each end;
// the second visit is skipped when (i) the edge's co-location bit was set
// this epoch and (ii) this reader confirms nothing: it would shift
// nothing, set a set bit, drop nothing and find conflictedAt and betaOneAt
// already revised. (i) alone suffices: each tag is read once per epoch, so
// the same reader's set made the first visit and with it every
// confirmation decision. Any other repeat visit runs in full, revising a
// first visit that saw the partner uncolored.
func (g *Graph) visitEdges(v *Node, c model.LocationID, now model.Epoch, reader model.ReaderID, confirmTop model.Tag, confirmParent map[model.Tag]model.Tag) {
	skip := confirmTop == model.NoTag
	// visitEdge may remove the edge it is handed, which shifts the span's
	// tail down by one: walk from the end so the unvisited part never moves.
	for _, span := range [2][]*Edge{v.parents, v.children} {
		for i := len(span) - 1; i >= 0; i-- {
			if e := span[i]; !skip || !e.colocatedAt(now) {
				g.visitEdge(e, v, c, now, reader, confirmTop, confirmParent)
			}
		}
	}
}

// visitEdge applies steps 3 and 4 to edge e met from its endpoint v.
func (g *Graph) visitEdge(e *Edge, v *Node, c model.LocationID, now model.Epoch, reader model.ReaderID, confirmTop model.Tag, confirmParent map[model.Tag]model.Tag) {
	g.stats.EdgesVisited++
	other := e.Parent
	if other == v {
		other = e.Child
	}
	otherColor := other.ColorAt(now)

	// Step 3: remove outdated edges.
	if otherColor.Known() && otherColor != c {
		g.recordDrop(e, now, reader, trace.DropColorMismatch)
		g.RemoveEdge(e)
		return
	}
	// Step 3 continued: drops dictated by a special reader's confirmation —
	// the child is itself a confirmed top-level container, or it has a
	// confirmed parent other than e.Parent.
	if confirmTop != model.NoTag {
		if e.Child.Tag == confirmTop {
			g.recordDrop(e, now, reader, trace.DropConfirmation)
			g.RemoveEdge(e)
			return
		}
		if p, ok := confirmParent[e.Child.Tag]; ok && p != e.Parent.Tag {
			g.recordDrop(e, now, reader, trace.DropConfirmation)
			g.RemoveEdge(e)
			return
		}
	}

	// Step 4: update edge statistics, shifting the history once per epoch.
	if e.UpdateTime < now {
		e.History.Shift()
	}
	if otherColor == c {
		e.History.SetRecent(true)
		if confirmParent != nil {
			if p, ok := confirmParent[e.Child.Tag]; ok && p == e.Parent.Tag {
				if e.Child.ConfirmedEdge != e {
					g.stats.Confirmations++
					if g.rec.Traces(e.Child.Tag) {
						g.rec.Record(trace.Record{
							Epoch: now, Tag: e.Child.Tag, Mech: trace.MechConfirmed,
							Loc: c, Other: e.Parent.Tag, Reader: reader,
						})
					}
				}
				e.Child.ConfirmedEdge = e
				e.Child.ConfirmedAt = now
				e.Child.Conflicts = 0
			}
		}
		if e.Child.ConfirmedEdge == e {
			if e.conflictedAt == now { // revise the earlier one-sided verdict
				e.Child.Conflicts--
				e.conflictedAt = model.EpochNone
			}
			if e.betaOneAt == now {
				e.Child.BetaOne--
				e.betaOneAt = model.EpochNone
			}
			if e.UpdateTime < now {
				e.Child.BetaEither++
			}
		}
	} else {
		e.History.SetRecent(false)
		if e.Child.ConfirmedEdge == e {
			if e.conflictedAt != now {
				e.Child.Conflicts++
				e.conflictedAt = now
			}
			if e.UpdateTime < now {
				e.Child.BetaEither++
			}
			if e.betaOneAt != now {
				e.Child.BetaOne++
				e.betaOneAt = now
			}
		}
	}
	e.UpdateTime = now
}

// recordDrop counts a step-3 edge removal and records it when the child
// is traced.
func (g *Graph) recordDrop(e *Edge, now model.Epoch, reader model.ReaderID, reason int32) {
	g.stats.EdgesDropped++
	if !g.rec.Traces(e.Child.Tag) {
		return
	}
	g.rec.Record(trace.Record{
		Epoch: now, Tag: e.Child.Tag, Mech: trace.MechEdgeDropped,
		Loc: model.LocationNone, Other: e.Parent.Tag, Reader: reader, Aux: reason,
	})
}
