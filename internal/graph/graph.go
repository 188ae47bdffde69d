// Package graph implements SPIRE's time-varying colored graph model
// (Section III of the paper).
//
// Nodes represent RFID-tagged objects, arranged in layers by packaging
// level. A node's color is the location where it was observed in the
// current epoch; unobserved nodes are uncolored but remember their most
// recent color and when it was seen. Directed edges parent→child encode
// *possible* containment relationships; each edge carries a
// recent_colocations bit-vector of positive/negative co-location evidence,
// and each node remembers its last reader-confirmed parent.
//
// The graph is updated stream-drivenly, one reader's reading set at a
// time, by the four-step procedure of Fig. 4 (see update.go). The
// inference package consumes the resulting structure.
package graph

import (
	"fmt"
	"slices"

	"spire/internal/model"
	"spire/internal/trace"
)

// Config parameterizes the graph model.
type Config struct {
	// HistorySize is S, the length of each edge's recent_colocations
	// bit-vector. The paper finds S=32 sufficient.
	HistorySize int
}

// DefaultHistorySize is the paper's chosen S.
const DefaultHistorySize = 32

func (c *Config) withDefaults() Config {
	out := *c
	if out.HistorySize == 0 {
		out.HistorySize = DefaultHistorySize
	}
	return out
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.HistorySize < 1 || c.HistorySize > MaxHistorySize {
		return fmt.Errorf("graph: HistorySize %d out of range [1,%d]", c.HistorySize, MaxHistorySize)
	}
	return nil
}

// Node is one object in the graph. Fields are mutated only by the graph
// update procedure; other packages read them.
type Node struct {
	Tag   model.Tag
	Level model.Level

	// RecentColor and SeenAt are the (recent color, seen at) memory of the
	// paper: the color of the location where the object was last observed
	// and the epoch of that observation. The node is *colored* in epoch t
	// iff SeenAt == t.
	RecentColor model.LocationID
	SeenAt      model.Epoch

	// NewColorAt is the last epoch in which the node was assigned a color
	// different from its previous one (including its first coloring). The
	// edge-creation step runs only for such nodes.
	NewColorAt model.Epoch

	// ConfirmedEdge is the parent edge last confirmed by a special reader
	// (at most one per node), ConfirmedAt the confirmation epoch, and
	// Conflicts the number of conflicting observations since then.
	ConfirmedEdge *Edge
	ConfirmedAt   model.Epoch
	Conflicts     int

	// BetaEither and BetaOne drive the adaptive-β heuristic of Expt 1:
	// among epochs in which the object or its confirmed container was
	// read, how many saw exactly one of the two.
	BetaEither int
	BetaOne    int

	// InferDist/DistStamp and InferLoc/LocStamp are scratch storage owned
	// by the inference package: the BFS hop distance assigned to this node
	// by the sweep whose stamp is DistStamp, and the location verdict
	// settled for it by the sweep whose stamp is LocStamp (the same
	// stamped-slot idiom as Edge.InferProb/InferStamp). A stamp differing
	// from the running pass means "not reached / not settled this pass" —
	// no per-epoch map or clearing needed.
	InferDist int32
	InferLoc  model.LocationID
	DistStamp uint64
	LocStamp  uint64

	// parents and children are the node's edge spans: incoming edges in
	// strictly ascending Parent.Tag order, outgoing edges in strictly
	// ascending Child.Tag order. Only AddEdge and RemoveEdge write them.
	parents  []*Edge
	children []*Edge

	comp     *Component // connected component (see components.go)
	compSeen uint64     // rebuild-BFS visit stamp, owned by rebuildComponent
}

// Colored reports whether the node was observed in epoch now.
func (n *Node) Colored(now model.Epoch) bool { return n.SeenAt == now }

// ColorAt returns the node's color in epoch now, or LocationNone if the
// node is uncolored (unobserved) in that epoch.
func (n *Node) ColorAt(now model.Epoch) model.LocationID {
	if n.SeenAt == now {
		return n.RecentColor
	}
	return model.LocationNone
}

// Parents returns the incoming (possible-container) edges in ascending
// parent-tag order. The span is owned by the graph: range over it, do not
// mutate it, and do not hold it across AddEdge or RemoveEdge.
func (n *Node) Parents() []*Edge { return n.parents }

// Children returns the outgoing (possible-content) edges in ascending
// child-tag order, under the same contract as Parents.
func (n *Node) Children() []*Edge { return n.children }

// NumParents and NumChildren report degree.
func (n *Node) NumParents() int  { return len(n.parents) }
func (n *Node) NumChildren() int { return len(n.children) }

// ParentEdge returns the edge from the given parent, if any.
func (n *Node) ParentEdge(parent model.Tag) *Edge {
	if i, ok := parentIndex(n.parents, parent); ok {
		return n.parents[i]
	}
	return nil
}

// ChildEdge returns the edge to the given child, if any.
func (n *Node) ChildEdge(child model.Tag) *Edge {
	if i, ok := childIndex(n.children, child); ok {
		return n.children[i]
	}
	return nil
}

// parentIndex binary-searches a parents span for the edge from tag,
// returning its position (or insertion point) and whether it is present.
// Hand-rolled: slices.BinarySearchFunc's indirect comparison call cost
// about 4 % of shelf_scale throughput on every AddEdge/RemoveEdge.
func parentIndex(span []*Edge, tag model.Tag) (int, bool) {
	lo, hi := 0, len(span)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); span[m].Parent.Tag < tag {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(span) && span[lo].Parent.Tag == tag
}

// childIndex is parentIndex for a children span.
func childIndex(span []*Edge, tag model.Tag) (int, bool) {
	lo, hi := 0, len(span)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); span[m].Child.Tag < tag {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(span) && span[lo].Child.Tag == tag
}

// AdaptiveBeta returns the adaptive β of Expt 1: the fraction of epochs,
// among those where the object or its confirmed container was read, in
// which exactly one of the two was read. Falls back to def when the node
// has no confirmation history yet.
func (n *Node) AdaptiveBeta(def float64) float64 {
	if n.BetaEither == 0 {
		return def
	}
	return float64(n.BetaOne) / float64(n.BetaEither)
}

// Edge is a possible containment relationship Parent→Child.
type Edge struct {
	Parent, Child *Node

	// History is the recent_colocations evidence bit-vector.
	History History

	// UpdateTime is the last epoch in which edge statistics were updated;
	// the update procedure shifts the history exactly once per epoch by
	// comparing it against now.
	UpdateTime model.Epoch

	// CreatedAt is the epoch the edge was added; edges are only eligible
	// for color-mismatch removal once they have survived a prior epoch
	// (Fig. 4 line 15).
	CreatedAt model.Epoch

	// conflictedAt / betaOneAt make the two-sided edge visit idempotent:
	// a first visit that saw the partner uncolored may be revised when the
	// partner turns out to be colored later in the same epoch.
	conflictedAt model.Epoch
	betaOneAt    model.Epoch

	// InferProb and InferStamp are scratch storage owned by the inference
	// package: the normalized Eq. 2 probability assigned to this edge by
	// the inference pass whose stamp is InferStamp. A stamp that differs
	// from the running pass means "no probability assigned this pass".
	// Living on the edge, the slot replaces a pointer-keyed map on the
	// inference hot path: O(1) access with no hashing and no per-epoch
	// clearing (stale entries are invalidated by the stamp alone).
	InferProb  float64
	InferStamp uint64
}

// Confirmed reports whether this edge is the confirmed parent edge of its
// child (drawn with double arrows in the paper's figures).
func (e *Edge) Confirmed() bool { return e.Child.ConfirmedEdge == e }

// Graph is the time-varying colored graph. It is not safe for concurrent
// mutation.
type Graph struct {
	cfg   Config
	nodes map[model.Tag]*Node
	edges int

	// colored indexes the nodes observed in the current epoch by level and
	// color, so the edge-creation step can find same-colored nodes in
	// nearby layers without scanning the graph. It is reset lazily when a
	// new epoch begins. Colors are dense small integers (location table
	// indices), so each level is a slice indexed by color rather than a
	// map. Grown by ensureColor.
	colored   [model.NumLevels][][]*Node
	coloredAt model.Epoch

	// freeEdges recycles removed Edge structs. Color-mismatch removal and
	// edge pruning churn through many short-lived edges (millions over a
	// large trace); reusing the structs keeps the steady-state update loop
	// allocation-free. Only edges fully detached from both endpoints enter
	// the list, so no live pointer can alias a recycled edge.
	freeEdges []*Edge

	// Connected-component bookkeeping (see components.go): the live
	// partition, its cached id-sorted order, the stale queue scratch, and
	// the rebuild-BFS visit stamp counter.
	comps        map[*Component]struct{}
	compOrder    []*Component
	compOrderOK  bool
	anyStale     bool
	staleScratch []*Component
	compStamp    uint64

	// stepNodes is Update's reused step-1 scratch: the nodes colored by
	// the current reader's reading set, by level.
	stepNodes [model.NumLevels][]*Node

	// rec is the optional decision-provenance recorder (nil when
	// untraced); see trace.go. Recording never mutates graph state.
	rec *trace.Recorder
}

// New creates an empty graph.
func New(cfg Config) (*Graph, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &Graph{
		cfg:       cfg,
		nodes:     make(map[model.Tag]*Node),
		coloredAt: model.EpochNone,
		comps:     make(map[*Component]struct{}),
	}
	return g, nil
}

// Config returns the graph's configuration.
func (g *Graph) Config() Config { return g.cfg }

// Node returns the node for tag, or nil.
func (g *Graph) Node(tag model.Tag) *Node { return g.nodes[tag] }

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.nodes) }

// EdgeCount returns the number of edges.
func (g *Graph) EdgeCount() int { return g.edges }

// FreeEdgeCount returns the number of recycled Edge structs parked on the
// free list — retained memory that Len/EdgeCount alone would hide.
func (g *Graph) FreeEdgeCount() int { return len(g.freeEdges) }

// Nodes calls f for every node; iteration order is unspecified.
func (g *Graph) Nodes(f func(*Node)) {
	for _, n := range g.nodes {
		f(n)
	}
}

// addNode creates a node for tag at the given level.
func (g *Graph) addNode(tag model.Tag, lvl model.Level) *Node {
	n := &Node{
		Tag:         tag,
		Level:       lvl,
		RecentColor: model.LocationNone,
		SeenAt:      model.EpochNone,
		NewColorAt:  model.EpochNone,
		ConfirmedAt: model.EpochNone,
	}
	g.nodes[tag] = n
	g.newComponent(n)
	return n
}

// AddEdge inserts a parent→child edge if absent and returns it. Both
// nodes must already be in the graph.
func (g *Graph) AddEdge(parent, child *Node, now model.Epoch) *Edge {
	pi, ok := parentIndex(child.parents, parent.Tag)
	if ok {
		return child.parents[pi]
	}
	h, err := NewHistory(g.cfg.HistorySize)
	if err != nil {
		panic(err) // validated at construction
	}
	var e *Edge
	if n := len(g.freeEdges); n > 0 {
		e = g.freeEdges[n-1]
		g.freeEdges[n-1] = nil
		g.freeEdges = g.freeEdges[:n-1]
	} else {
		e = new(Edge)
	}
	*e = Edge{
		Parent:       parent,
		Child:        child,
		History:      h,
		UpdateTime:   model.EpochNone,
		CreatedAt:    now,
		conflictedAt: model.EpochNone,
		betaOneAt:    model.EpochNone,
	}
	child.parents = slices.Insert(child.parents, pi, e)
	ci, _ := childIndex(parent.children, child.Tag)
	parent.children = slices.Insert(parent.children, ci, e)
	g.edges++
	g.unionComponents(parent.comp, child.comp, now)
	if g.rec != nil {
		g.rec.Record(trace.Record{
			Epoch: now, Tag: child.Tag, Mech: trace.MechEdgeCreated,
			Loc: model.LocationNone, Other: parent.Tag,
		})
	}
	return e
}

// RemoveEdge detaches e from both endpoints and recycles the struct. The
// identity check makes removal idempotent and guards against a stale edge
// deleting a newer edge of the same parent-child pair.
func (g *Graph) RemoveEdge(e *Edge) {
	if e.Child.ConfirmedEdge == e {
		e.Child.ConfirmedEdge = nil
	}
	pi, ok := parentIndex(e.Child.parents, e.Parent.Tag)
	if !ok || e.Child.parents[pi] != e {
		return
	}
	e.Child.parents = slices.Delete(e.Child.parents, pi, pi+1)
	ci, _ := childIndex(e.Parent.children, e.Child.Tag)
	e.Parent.children = slices.Delete(e.Parent.children, ci, ci+1)
	g.edges--
	g.freeEdges = append(g.freeEdges, e)
	g.markStale(e.Child.comp)
}

// RemoveNode deletes the node for tag and all incident edges. The
// substrate calls this when an object exits the world through a proper
// channel (the graph-pruning routine of Section IV-C).
func (g *Graph) RemoveNode(tag model.Tag) {
	n, ok := g.nodes[tag]
	if !ok {
		return
	}
	// RemoveEdge shrinks the span it is handed an element of: pop from
	// the end until both are empty.
	for len(n.parents) > 0 {
		g.RemoveEdge(n.parents[len(n.parents)-1])
	}
	for len(n.children) > 0 {
		g.RemoveEdge(n.children[len(n.children)-1])
	}
	// Drop the node from the colored index of the current epoch, if there.
	if n.SeenAt == g.coloredAt && n.RecentColor.Known() && int(n.RecentColor) < len(g.colored[n.Level]) {
		lvl := int(n.Level)
		list := g.colored[lvl][n.RecentColor]
		for i, m := range list {
			if m == n {
				list[i] = list[len(list)-1]
				g.colored[lvl][n.RecentColor] = list[:len(list)-1]
				break
			}
		}
	}
	// The node's edges are already gone (their removal marked the
	// component stale), but an isolated node's removal must queue the
	// rebuild itself so the member list sheds the dead entry.
	g.markStale(n.comp)
	n.comp = nil
	delete(g.nodes, tag)
}

// ColoredNodes returns the nodes observed in epoch now at the given level
// and color. The slice is owned by the graph; do not mutate.
func (g *Graph) ColoredNodes(lvl model.Level, color model.LocationID, now model.Epoch) []*Node {
	if g.coloredAt != now || !color.Known() || int(color) >= len(g.colored[lvl]) {
		return nil
	}
	return g.colored[lvl][color]
}

// EachColored calls f for every node observed in epoch now. Iteration
// order is deterministic: by level, then ascending color, then insertion
// order within a bucket.
func (g *Graph) EachColored(now model.Epoch, f func(*Node)) {
	if g.coloredAt != now {
		return
	}
	for lvl := range g.colored {
		for _, list := range g.colored[lvl] {
			for _, n := range list {
				f(n)
			}
		}
	}
}

// beginEpoch lazily resets the per-epoch colored index.
func (g *Graph) beginEpoch(now model.Epoch) {
	if g.coloredAt == now {
		return
	}
	for i := range g.colored {
		buckets := g.colored[i]
		for k := range buckets {
			buckets[k] = buckets[k][:0]
		}
	}
	g.coloredAt = now
}

// ensureColor grows every level's colored index to cover color c. Must be
// called on the owning goroutine before any concurrent bucket appends.
func (g *Graph) ensureColor(c model.LocationID) {
	need := int(c) + 1
	for i := range g.colored {
		for len(g.colored[i]) < need {
			g.colored[i] = append(g.colored[i], nil)
		}
	}
}

// NodeSizeBytes and EdgeSizeBytes are the per-object memory costs behind
// the memory experiment (Fig. 10): the struct sizes (a node's two span
// headers are part of its struct) plus, per edge, the pointer slot it
// occupies in each endpoint's span. Span capacity slack and the node
// index are not charged. A test pins both to unsafe.Sizeof.
const (
	NodeSizeBytes = 160
	EdgeSizeBytes = 80 + 2*8
)

// ApproxBytes estimates the resident size of the graph.
func (g *Graph) ApproxBytes() int64 {
	return int64(len(g.nodes))*NodeSizeBytes + int64(g.edges)*EdgeSizeBytes
}

// Stats is a structural snapshot of the graph, for monitoring and
// diagnostics.
type Stats struct {
	Nodes          int
	NodesByLevel   [model.NumLevels]int
	Edges          int
	ConfirmedEdges int
	Colored        int // nodes observed in the snapshot epoch
	ApproxBytes    int64
}

// Snapshot computes Stats for epoch now in one O(V+E) pass.
func (g *Graph) Snapshot(now model.Epoch) Stats {
	st := Stats{Nodes: len(g.nodes), Edges: g.edges, ApproxBytes: g.ApproxBytes()}
	for _, n := range g.nodes {
		if n.Level.Valid() {
			st.NodesByLevel[n.Level]++
		}
		if n.Colored(now) {
			st.Colored++
		}
		if n.ConfirmedEdge != nil {
			st.ConfirmedEdges++
		}
	}
	return st
}
