package graph

import (
	"fmt"

	"spire/internal/model"
)

// CheckInvariants verifies the structural invariants of the graph model
// after all reader sets of epoch now have been applied. It is used by
// tests and by the property-based suite; it is O(V+E).
//
// Invariants checked:
//   - edge spans are in strictly ascending partner-tag order, every edge
//     sits in both its endpoints' spans, and the edge count matches;
//   - a parent edge never points from a lower to a higher node within the
//     same... more precisely, Parent.Level > Child.Level always (edges may
//     cross layers but always point downward);
//   - no edge connects two nodes observed in different locations in epoch
//     now (they must have been removed in step 3);
//   - a node's confirmed edge, if set, is one of its parent edges;
//   - every node observed in epoch now appears exactly once in the colored
//     index under its level and color;
//   - every node belongs to a registered component whose member list
//     contains it, both endpoints of every edge share a component, and a
//     non-stale component's id is the smallest member tag.
func (g *Graph) CheckInvariants(now model.Epoch) error {
	edgeSeen := 0
	for tag, n := range g.nodes {
		if n.Tag != tag {
			return fmt.Errorf("graph: node keyed %d has tag %d", tag, n.Tag)
		}
		for i, e := range n.parents {
			ptag := e.Parent.Tag
			if e.Child != n {
				return fmt.Errorf("graph: parent edge of %d has child %d", tag, e.Child.Tag)
			}
			if i > 0 && n.parents[i-1].Parent.Tag >= ptag {
				return fmt.Errorf("graph: parents span of %d not ascending at %d", tag, ptag)
			}
			if e.Parent.ChildEdge(tag) != e {
				return fmt.Errorf("graph: edge %d→%d missing from parent's children", ptag, tag)
			}
			if e.Parent.Level <= e.Child.Level {
				return fmt.Errorf("graph: edge %d→%d does not point downward (%v→%v)",
					ptag, tag, e.Parent.Level, e.Child.Level)
			}
			pc, cc := e.Parent.ColorAt(now), e.Child.ColorAt(now)
			if pc.Known() && cc.Known() && pc != cc {
				return fmt.Errorf("graph: edge %d→%d connects colors %v and %v at epoch %d",
					ptag, tag, pc, cc, now)
			}
			edgeSeen++
		}
		for i, e := range n.children {
			ctag := e.Child.Tag
			if e.Parent != n {
				return fmt.Errorf("graph: child edge %d→%d has parent %d", tag, ctag, e.Parent.Tag)
			}
			if i > 0 && n.children[i-1].Child.Tag >= ctag {
				return fmt.Errorf("graph: children span of %d not ascending at %d", tag, ctag)
			}
			if e.Child.ParentEdge(tag) != e {
				return fmt.Errorf("graph: edge %d→%d missing from child's parents", tag, ctag)
			}
		}
		if ce := n.ConfirmedEdge; ce != nil {
			if n.ParentEdge(ce.Parent.Tag) != ce {
				return fmt.Errorf("graph: node %d confirmed edge is not among its parents", tag)
			}
		}
		if n.Colored(now) && !n.RecentColor.Known() {
			return fmt.Errorf("graph: node %d colored with sentinel color %v", tag, n.RecentColor)
		}
	}
	if edgeSeen != g.edges {
		return fmt.Errorf("graph: edge count %d but %d edges found", g.edges, edgeSeen)
	}
	if g.coloredAt == now {
		counted := make(map[model.Tag]int)
		for lvl := range g.colored {
			for color, list := range g.colored[lvl] {
				for _, n := range list {
					counted[n.Tag]++
					if int(n.Level) != lvl || n.RecentColor != model.LocationID(color) || !n.Colored(now) {
						return fmt.Errorf("graph: node %d misfiled in colored index (%v/%v)", n.Tag, n.Level, color)
					}
				}
			}
		}
		for _, n := range g.nodes {
			want := 0
			if n.Colored(now) {
				want = 1
			}
			if counted[n.Tag] != want {
				return fmt.Errorf("graph: node %d appears %d times in colored index, want %d",
					n.Tag, counted[n.Tag], want)
			}
		}
	}
	if err := g.checkComponentInvariants(); err != nil {
		return err
	}
	return nil
}

// checkComponentInvariants validates the component partition. Stale
// components may be too coarse (their member lists hold nodes that have
// since been reassigned or removed), so membership is only enforced for
// the node's own comp pointer; edges must never cross components even
// when stale, since staleness only ever defers a split.
func (g *Graph) checkComponentInvariants() error {
	for tag, n := range g.nodes {
		c := n.comp
		if c == nil {
			return fmt.Errorf("graph: node %d has nil component", tag)
		}
		if _, ok := g.comps[c]; !ok {
			return fmt.Errorf("graph: node %d points at unregistered component %d", tag, c.id)
		}
		found := false
		for _, m := range c.members {
			if m == n {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("graph: node %d missing from member list of component %d", tag, c.id)
		}
		for _, e := range n.parents {
			if e.Parent.comp != e.Child.comp {
				return fmt.Errorf("graph: edge %d→%d crosses components %d and %d",
					e.Parent.Tag, e.Child.Tag, e.Parent.comp.id, e.Child.comp.id)
			}
		}
	}
	for c := range g.comps {
		if c.stale {
			continue
		}
		min := model.Tag(0)
		live := 0
		for _, m := range c.members {
			if m.comp != c {
				return fmt.Errorf("graph: non-stale component %d lists foreign node %d", c.id, m.Tag)
			}
			if live == 0 || m.Tag < min {
				min = m.Tag
			}
			live++
		}
		if live == 0 {
			return fmt.Errorf("graph: registered component %d has no members", c.id)
		}
		if c.id != min {
			return fmt.Errorf("graph: component id %d but smallest member is %d", c.id, min)
		}
	}
	return nil
}
