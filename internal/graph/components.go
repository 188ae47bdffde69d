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
// exploits that independence to skip clean work — unread components under
// partial inference, settled ones served from cached verdict slabs — which
// makes component identity part of the graph's contract.
//
// Identity is maintained incrementally where cheap and lazily where not:
//
//   - AddEdge unions the two endpoint components (smaller member list
//     merged into the larger, the union keeping the smaller id);
//   - edge or node removal only ever *splits* a component, which cannot be
//     resolved locally, so the affected component is marked stale and
//     repartitioned by BFS on the next Components call;
//   - a component's id is the smallest member tag — unique across the
//     partition, and stable for untouched components so per-component
//     caches keyed by id survive across epochs.
//
// Dirtiness: dirtyAt is the last epoch in which any member was read
// (which covers coloring, color changes, and node creation — see
// update.go step 1) or the component gained an edge; removals (retire,
// prune, color-mismatch drop) go through the stale path, and the rebuild
// stamps every resulting component dirty at the rebuild epoch. A consumer
// holding per-component state from epoch e may keep it exactly while
// DirtyAt() <= e.

// Component is one connected component of the graph. It is owned and
// mutated by the graph; consumers treat it as read-only.
type Component struct {
	id      model.Tag
	members []*Node
	dirtyAt model.Epoch
	stale   bool
}

// ID returns the component's identity: the smallest member tag. Ids are
// unique across the live partition. An id is stable while the component
// is untouched; merges and rebuilds may retire or reuse it, but any such
// change also advances DirtyAt.
func (c *Component) ID() model.Tag { return c.id }

// Len returns the number of member nodes.
func (c *Component) Len() int { return len(c.members) }

// Members returns the member nodes in unspecified order. The slice is
// owned by the graph; do not mutate. Stale components (pending rebuild)
// are never handed out by Components, so every listed node belongs to
// the component.
func (c *Component) Members() []*Node { return c.members }

// DirtyAt returns the epoch of the last dirtying touch (model.EpochNone
// for a never-touched component).
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
	c := &Component{id: n.Tag, members: []*Node{n}, dirtyAt: model.EpochNone}
	n.comp = c
	g.comps[c] = struct{}{}
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
		n.comp = a
	}
	a.members = append(a.members, b.members...)
	if b.id < a.id {
		a.id = b.id
	}
	if b.dirtyAt > a.dirtyAt {
		a.dirtyAt = b.dirtyAt
	}
	a.stale = a.stale || b.stale
	a.touch(now)
	delete(g.comps, b)
	g.compOrderOK = false
}

// markStale queues c for repartitioning on the next Components call.
// Until then the component may be too coarse (a pending split), never too
// fine — no live edge ever crosses component boundaries.
func (g *Graph) markStale(c *Component) {
	if c != nil && !c.stale {
		c.stale = true
		g.anyStale = true
	}
}

// Components returns the live connected components sorted by id,
// repartitioning any components made stale by edge or node removals
// since the last call. Every component produced by a rebuild is stamped
// dirty at now. The returned slice and the components are owned by the
// graph and valid until the next mutation.
func (g *Graph) Components(now model.Epoch) []*Component {
	if g.anyStale {
		g.staleScratch = g.staleScratch[:0]
		for c := range g.comps {
			if c.stale {
				g.staleScratch = append(g.staleScratch, c)
			}
		}
		for _, c := range g.staleScratch {
			g.rebuildComponent(c, now)
		}
		g.anyStale = false
	}
	if !g.compOrderOK {
		g.compOrder = g.compOrder[:0]
		for c := range g.comps {
			g.compOrder = append(g.compOrder, c)
		}
		slices.SortFunc(g.compOrder, func(a, b *Component) int { return cmp.Compare(a.id, b.id) })
		g.compOrderOK = true
	}
	return g.compOrder
}

// rebuildComponent repartitions a stale component by BFS over its
// surviving members. Members removed from the graph (comp == nil) or
// already claimed by a newer component are skipped.
func (g *Graph) rebuildComponent(c *Component, now model.Epoch) {
	delete(g.comps, c)
	g.compOrderOK = false
	g.compStamp++
	stamp := g.compStamp
	for _, seed := range c.members {
		if seed.comp != c || seed.compSeen == stamp {
			continue
		}
		nc := &Component{id: seed.Tag, dirtyAt: now}
		seed.compSeen = stamp
		nc.members = append(nc.members, seed)
		// The members slice doubles as the BFS queue.
		for qi := 0; qi < len(nc.members); qi++ {
			m := nc.members[qi]
			if m.Tag < nc.id {
				nc.id = m.Tag
			}
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
		g.comps[nc] = struct{}{}
	}
}
