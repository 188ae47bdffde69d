package graph

import (
	"cmp"
	"slices"

	"spire/internal/model"
)

// Connected-component tracking.
//
// The containment graph naturally decomposes into independent connected
// components: every edge is created between two same-colored nodes, so no
// path ever crosses a component boundary, and the inference sweep of one
// component reads and writes nothing of another. The inference package
// sweeps one component at a time and, under partial inference, skips the
// components no reader saw this epoch.
//
// Identity is maintained incrementally where cheap and lazily where not:
//
//   - AddEdge unions the two endpoint components (the smaller member list
//     merged into the larger);
//   - edge or node removal only ever *splits* a component, which cannot be
//     resolved locally, so the affected component is marked stale and
//     repartitioned by BFS on the next Components call;
//   - member lists are kept in ascending tag order through both, so a
//     component's id is its first member's tag, unique across the
//     partition.
//
// The graph keeps its nodes in one tag order as well, Node.rank being a
// node's position. A new node above every tag is appended ranked, others
// wait unranked in pending, and removed ones stay in place; Components
// merges and drops them, and renumbers from the lowest position that
// changed.
//
// Dirtiness: DirtyAt() is never earlier than the last epoch in which a
// member was read (update.go step 1 touches every read tag's component),
// so a component with DirtyAt() != now had no reading this epoch — the
// partial-inference skip. Edge unions and rebuilds stamp their epoch too,
// which only makes the skip more conservative.

// Component is one connected component of the graph. It is owned and
// mutated by the graph; consumers treat it as read-only.
type Component struct {
	members []*Node
	dirtyAt model.Epoch
	stale   bool
}

// ID returns the component's identity: the smallest member tag. Ids are
// unique across the live partition.
func (c *Component) ID() model.Tag { return c.members[0].Tag }

// Len returns the number of member nodes.
func (c *Component) Len() int { return len(c.members) }

// Members returns the member nodes in ascending tag order. The slice is
// owned by the graph; do not mutate. Stale components (pending rebuild)
// are never handed out by Components, so every listed node belongs to
// the component.
func (c *Component) Members() []*Node { return c.members }

// DirtyAt returns the epoch of the last touch: a member read, an edge
// added or a rebuild (model.EpochNone for a never-touched component).
func (c *Component) DirtyAt() model.Epoch { return c.dirtyAt }

// touch marks the component dirty as of epoch now.
func (c *Component) touch(now model.Epoch) {
	if c.dirtyAt < now {
		c.dirtyAt = now
	}
}

// Component returns the connected component containing n. Never nil for a
// node in a graph; the result may be stale (pending rebuild) until the
// next Components call.
func (n *Node) Component() *Component { return n.comp }

// newComponent registers a fresh singleton component for n.
func (g *Graph) newComponent(n *Node) {
	c := &Component{members: []*Node{n}, dirtyAt: model.EpochNone}
	n.comp = c
	g.compOrder = append(g.compOrder, c)
	g.compOrderOK = false
}

// unionComponents merges the components of two nodes being connected by a
// new edge at epoch now, and marks the union dirty.
func (g *Graph) unionComponents(a, b *Component, now model.Epoch) {
	if a == b {
		a.touch(now)
		return
	}
	if len(a.members) < len(b.members) {
		a, b = b, a
	}
	for _, n := range b.members {
		if n.comp != nil { // a stale list may hold removed nodes
			n.comp = a
		}
	}
	a.members, _ = mergeByTag(a.members, b.members)
	if b.stale {
		g.markStale(a)
	}
	b.members = nil // merged away: the stale queue and compOrder drop it
	a.touch(now)
	g.compOrderOK = false
}

// markStale queues c for repartitioning on the next Components call.
// Until then the component may be too coarse (a pending split), never too
// fine — no live edge ever crosses component boundaries.
func (g *Graph) markStale(c *Component) {
	if c != nil && !c.stale {
		c.stale = true
		g.stale = append(g.stale, c)
	}
}

// Components returns the live connected components sorted by id,
// repartitioning any components made stale by edge or node removals
// since the last call, and renumbers the node ranks. Every component
// produced by a rebuild is stamped dirty at now. The returned slice and
// the components are owned by the graph and valid until the next
// mutation.
func (g *Graph) Components(now model.Epoch) []*Component {
	g.rankNodes()
	for _, c := range g.stale {
		if c.members != nil {
			g.rebuildComponent(c, now)
		}
	}
	clear(g.stale)
	g.stale = g.stale[:0]
	if !g.compOrderOK {
		// Drop the components merged away or rebuilt; the survivors are
		// still nearly in id order.
		live := g.compOrder[:0]
		for _, c := range g.compOrder {
			if c.members != nil {
				live = append(live, c)
			}
		}
		clear(g.compOrder[len(live):])
		g.compOrder = live
		slices.SortFunc(live, func(a, b *Component) int { return cmp.Compare(a.ID(), b.ID()) })
		g.compOrderOK = true
	}
	return g.compOrder
}

// rebuildComponent repartitions a stale component by BFS over its
// surviving members. Members removed from the graph (comp == nil) or
// already claimed by a new component are skipped. The BFS only labels;
// the new member lists are then filled from c's tag-sorted list, so each
// comes out sorted.
func (g *Graph) rebuildComponent(c *Component, now model.Epoch) {
	g.compOrderOK = false
	g.compStamp++
	stamp := g.compStamp
	for _, seed := range c.members {
		if seed.comp != c {
			continue
		}
		nc := &Component{dirtyAt: now}
		seed.compSeen = stamp
		nc.members = append(nc.members, seed)
		// The members slice doubles as the BFS queue.
		for qi := 0; qi < len(nc.members); qi++ {
			m := nc.members[qi]
			m.comp = nc
			for _, e := range m.parents {
				if p := e.Parent; p.compSeen != stamp {
					p.compSeen = stamp
					nc.members = append(nc.members, p)
				}
			}
			for _, e := range m.children {
				if ch := e.Child; ch.compSeen != stamp {
					ch.compSeen = stamp
					nc.members = append(nc.members, ch)
				}
			}
		}
		nc.members = nc.members[:0]
		g.compOrder = append(g.compOrder, nc)
	}
	for _, m := range c.members {
		if m.comp != nil {
			m.comp.members = append(m.comp.members, m)
		}
	}
	c.members = nil
}

// mergeByTag merges the tag-sorted src into the tag-sorted dst from the
// back, so only the part of dst above src's smallest tag moves, and
// returns the merged slice and the lowest position that changed.
func mergeByTag(dst, src []*Node) ([]*Node, int) {
	i, k := len(dst)-1, len(dst)+len(src)-1
	dst = append(dst, src...)
	for j := len(src) - 1; j >= 0; k-- {
		if i >= 0 && dst[i].Tag > src[j].Tag {
			dst[k] = dst[i]
			i--
		} else {
			dst[k] = src[j]
			j--
		}
	}
	return dst, k + 1
}

// rankNodes merges the nodes added since the last call into the tag
// order, then drops the removed ones and renumbers the ranks, both from
// the lowest position that changed.
func (g *Graph) rankNodes() {
	if len(g.pending) > 0 {
		slices.SortFunc(g.pending, func(a, b *Node) int { return cmp.Compare(a.Tag, b.Tag) })
		var from int
		g.order, from = mergeByTag(g.order, g.pending)
		g.orderFrom = min(g.orderFrom, from)
		clear(g.pending)
		g.pending = g.pending[:0]
	}
	live := g.order[:g.orderFrom]
	for _, n := range g.order[g.orderFrom:] {
		if n.comp != nil { // removed nodes have none
			n.rank = int32(len(live))
			live = append(live, n)
		}
	}
	clear(g.order[len(live):])
	g.order, g.orderFrom = live, len(live)
}
