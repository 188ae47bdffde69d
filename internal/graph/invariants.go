package graph

import (
	"fmt"

	"spire/internal/model"
)

// CheckInvariants verifies the structural invariants of the graph model
// after all reader sets of epoch now have been applied. It is used by
// tests, by the property-based suite and on every restore; it is
// O(V+E), and renumbers the tag order as Components does.
//
// Invariants checked:
//   - edge spans are in strictly ascending partner-tag order, every edge
//     sits in both its endpoints' spans, and the edge count matches;
//   - Parent.Level > Child.Level always (edges may cross layers but
//     always point downward);
//   - no edge connects two nodes observed in different locations in epoch
//     now (they must have been removed in step 3);
//   - a node's confirmed edge, if set, is one of its parent edges;
//   - every node observed in epoch now appears exactly once in the colored
//     index under its level and color;
//   - every node belongs to a live component whose member list
//     contains it, both endpoints of every edge share a component, and a
//     non-stale component's members are strictly tag-ascending (so its
//     id, the first member's tag, is the smallest);
//   - the graph's tag order lists every live node once, ascending, each
//     at its rank.
func (g *Graph) CheckInvariants(now model.Epoch) error {
	for tag, n := range g.nodes {
		if n.Tag != tag {
			return fmt.Errorf("graph: node keyed %d has tag %d", tag, n.Tag)
		}
	}
	if err := g.checkOrder(); err != nil {
		return err
	}
	for _, n := range g.order {
		for i, e := range n.children {
			ctag := e.Child.Tag
			if e.Parent != n {
				return fmt.Errorf("graph: child edge %d→%d has parent %d", n.Tag, ctag, e.Parent.Tag)
			}
			if i > 0 && n.children[i-1].Child.Tag >= ctag {
				return fmt.Errorf("graph: children span of %d not ascending at %d", n.Tag, ctag)
			}
		}
	}
	// Walking the children in tag order meets each parent's ascending
	// children span in order, so one cursor per parent rank checks that
	// every edge sits in both spans.
	cursor := make([]int32, len(g.order))
	edgeSeen := 0
	for _, n := range g.order {
		tag := n.Tag
		confirmed := n.ConfirmedEdge == nil
		for i, e := range n.parents {
			p := e.Parent
			ptag := p.Tag
			if e.Child != n {
				return fmt.Errorf("graph: parent edge of %d has child %d", tag, e.Child.Tag)
			}
			if i > 0 && n.parents[i-1].Parent.Tag >= ptag {
				return fmt.Errorf("graph: parents span of %d not ascending at %d", tag, ptag)
			}
			if !g.live(p) {
				return fmt.Errorf("graph: edge %d→%d missing from parent's children", ptag, tag)
			}
			kids, at := p.children, cursor[p.rank]
			if int(at) < len(kids) && kids[at].Child.Tag < tag {
				return fmt.Errorf("graph: edge %d→%d missing from child's parents", ptag, kids[at].Child.Tag)
			}
			if int(at) == len(kids) || kids[at] != e {
				return fmt.Errorf("graph: edge %d→%d missing from parent's children", ptag, tag)
			}
			cursor[p.rank]++
			if p.Level <= n.Level {
				return fmt.Errorf("graph: edge %d→%d does not point downward (%v→%v)",
					ptag, tag, p.Level, n.Level)
			}
			pc, cc := p.ColorAt(now), n.ColorAt(now)
			if pc.Known() && cc.Known() && pc != cc {
				return fmt.Errorf("graph: edge %d→%d connects colors %v and %v at epoch %d",
					ptag, tag, pc, cc, now)
			}
			confirmed = confirmed || e == n.ConfirmedEdge
			edgeSeen++
		}
		if !confirmed {
			return fmt.Errorf("graph: node %d confirmed edge is not among its parents", tag)
		}
		if n.Colored(now) && !n.RecentColor.Known() {
			return fmt.Errorf("graph: node %d colored with sentinel color %v", tag, n.RecentColor)
		}
	}
	for _, n := range g.order {
		if at := cursor[n.rank]; int(at) < len(n.children) {
			return fmt.Errorf("graph: edge %d→%d missing from child's parents", n.Tag, n.children[at].Child.Tag)
		}
	}
	if edgeSeen != g.edges {
		return fmt.Errorf("graph: edge count %d but %d edges found", g.edges, edgeSeen)
	}
	if g.coloredAt == now {
		counted := cursor
		clear(counted)
		for lvl := range g.colored {
			for color, list := range g.colored[lvl] {
				for _, n := range list {
					if !g.live(n) || int(n.Level) != lvl || n.RecentColor != model.LocationID(color) || !n.Colored(now) {
						return fmt.Errorf("graph: node %d misfiled in colored index (%v/%v)", n.Tag, n.Level, color)
					}
					counted[n.rank]++
				}
			}
		}
		for _, n := range g.order {
			want := int32(0)
			if n.Colored(now) {
				want = 1
			}
			if counted[n.rank] != want {
				return fmt.Errorf("graph: node %d appears %d times in colored index, want %d",
					n.Tag, counted[n.rank], want)
			}
		}
	}
	return g.checkComponentInvariants(cursor)
}

// live reports whether n is a node of the graph, at its rank in the tag
// order (valid after checkOrder).
func (g *Graph) live(n *Node) bool {
	return n.rank >= 0 && int(n.rank) < len(g.order) && g.order[n.rank] == n
}

// checkComponentInvariants validates the component partition, using seen
// (one slot per rank) as scratch. Stale components may be too coarse
// (their member lists hold nodes that have since been reassigned or
// removed), so membership is only enforced for the node's own comp
// pointer; edges must never cross components even when stale, since
// staleness only ever defers a split. Every component with members sits
// in compOrder until Components drops it, so one pass over compOrder
// marks each node found in its own component's list.
func (g *Graph) checkComponentInvariants(seen []int32) error {
	clear(seen)
	for _, c := range g.compOrder {
		for i, m := range c.members {
			if m.comp == c && g.live(m) {
				seen[m.rank] = 1
			}
			if c.stale {
				continue
			}
			if m.comp != c {
				return fmt.Errorf("graph: non-stale component %d lists foreign node %d", c.ID(), m.Tag)
			}
			if i > 0 && c.members[i-1].Tag >= m.Tag {
				return fmt.Errorf("graph: component %d members not tag-ascending at %d", c.ID(), m.Tag)
			}
		}
	}
	for _, n := range g.order {
		c := n.comp
		if c == nil || c.members == nil {
			return fmt.Errorf("graph: node %d has no live component", n.Tag)
		}
		if seen[n.rank] == 0 {
			return fmt.Errorf("graph: node %d missing from member list of component %d", n.Tag, c.ID())
		}
		for _, e := range n.parents {
			if e.Parent.comp != e.Child.comp {
				return fmt.Errorf("graph: edge %d→%d crosses components %d and %d",
					e.Parent.Tag, e.Child.Tag, e.Parent.comp.ID(), e.Child.comp.ID())
			}
		}
	}
	return nil
}

// checkOrder renumbers the tag order, as Components does, and checks
// that it lists every node once, strictly ascending, each at its rank.
func (g *Graph) checkOrder() error {
	g.rankNodes()
	if len(g.order) != len(g.nodes) || len(g.pending) != 0 {
		return fmt.Errorf("graph: order lists %d+%d of %d nodes", len(g.order), len(g.pending), len(g.nodes))
	}
	for i, n := range g.order {
		if g.nodes[n.Tag] != n || int(n.rank) != i || i > 0 && g.order[i-1].Tag >= n.Tag {
			return fmt.Errorf("graph: order position %d holds node %d of rank %d", i, n.Tag, n.rank)
		}
	}
	return nil
}
