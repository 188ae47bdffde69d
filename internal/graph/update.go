package graph

import (
	"fmt"

	"spire/internal/epc"
	"spire/internal/model"
	"spire/internal/trace"
)

// Update applies one reader's reading set for the current epoch — the
// stream-driven graph update procedure of Fig. 4. It may be called once
// per reader per epoch, in any order; after the sets of all readers of an
// epoch have been applied the graph is consistent for that epoch.
//
// The four steps:
//  1. create and color the nodes for the read tags;
//  2. for nodes that gained a new color, create possible-containment
//     edges to same-colored nodes in the closest layers above and below;
//  3. remove edges whose endpoints are observed in different locations,
//     and edges contradicted by this (special) reader's confirmations;
//  4. update per-edge co-location history, confirmed parents, conflict
//     counts, and the adaptive-β counters.
func (g *Graph) Update(reader *model.Reader, tags []model.Tag, now model.Epoch) error {
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
		}
		// A read tag dirties its component: its color, fade clock, or
		// history may change, so cached per-component verdicts are void.
		n.comp.touch(now)
		if n.SeenAt == now {
			if n.RecentColor == c {
				continue // duplicate reading within the epoch
			}
			// Conflicting colors within one epoch should have been removed
			// by deduplication; the most recent reader wins, so move the
			// node between index buckets.
			g.removeFromIndex(n)
		}
		if n.RecentColor != c {
			n.NewColorAt = now
		}
		n.RecentColor = c
		n.SeenAt = now
		g.colored[lvl][c] = append(g.colored[lvl][c], n)
		batch[lvl] = append(batch[lvl], n)
		if g.rec != nil && g.rec.Traces(tag) {
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
			g.visitEdges(v, c, now, reader.ID, confirmTop, confirmParent)
		}
	}
	return nil
}

// removeFromIndex drops n from the current epoch's colored index.
func (g *Graph) removeFromIndex(n *Node) {
	list := g.colored[n.Level][n.RecentColor]
	for i, m := range list {
		if m == n {
			list[i] = list[len(list)-1]
			g.colored[n.Level][n.RecentColor] = list[:len(list)-1]
			return
		}
	}
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
// node. Edges may legitimately be visited twice in an epoch, once from
// each endpoint; the bookkeeping below is idempotent, and a second visit
// that discovers the partner is in fact colored revises the pessimistic
// verdict of the first.
func (g *Graph) visitEdges(v *Node, c model.LocationID, now model.Epoch, reader model.ReaderID, confirmTop model.Tag, confirmParent map[model.Tag]model.Tag) {
	visit := func(e *Edge) {
		other := e.Parent
		if other == v {
			other = e.Child
		}
		otherColor := other.ColorAt(now)

		// Step 3: remove outdated edges. Only edges that predate this
		// epoch can carry a stale color relationship (fresh edges are
		// created same-colored by construction).
		if e.CreatedAt < now && otherColor.Known() && otherColor != c {
			g.recordDrop(e, now, reader, trace.DropColorMismatch)
			g.RemoveEdge(e)
			return
		}
		// Step 3 continued: drops dictated by a special reader's
		// confirmation — the child is itself a confirmed top-level
		// container, or it has a confirmed parent other than e.Parent.
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

		// Step 4: update edge statistics, shifting the history exactly
		// once per epoch.
		if e.UpdateTime < now {
			e.History.Shift()
		}
		if otherColor == c {
			e.History.SetRecent(true)
			if confirmParent != nil {
				if p, ok := confirmParent[e.Child.Tag]; ok && p == e.Parent.Tag {
					if g.rec != nil && e.Child.ConfirmedEdge != e {
						g.rec.Record(trace.Record{
							Epoch: now, Tag: e.Child.Tag, Mech: trace.MechConfirmed,
							Loc: c, Other: e.Parent.Tag, Reader: reader,
						})
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
	// visit may remove the edge it is handed, which shifts the span's tail
	// down by one: walk from the end so the unvisited part never moves.
	for i := len(v.parents) - 1; i >= 0; i-- {
		visit(v.parents[i])
	}
	for i := len(v.children) - 1; i >= 0; i-- {
		visit(v.children[i])
	}
}

// recordDrop records a step-3 edge removal when tracing is enabled.
func (g *Graph) recordDrop(e *Edge, now model.Epoch, reader model.ReaderID, reason int32) {
	if g.rec == nil {
		return
	}
	g.rec.Record(trace.Record{
		Epoch: now, Tag: e.Child.Tag, Mech: trace.MechEdgeDropped,
		Loc: model.LocationNone, Other: e.Parent.Tag, Reader: reader, Aux: reason,
	})
}
