package inference

import (
	"cmp"
	"math"
	"slices"

	"spire/internal/graph"
	"spire/internal/model"
)

// InferReference runs the paper's global layer-interleaved sweep — the
// pre-sharding Infer, kept verbatim in structure — and returns a freshly
// allocated Result in the sparse map form. It is the oracle for the
// differential tests pinning the component-at-a-time Infer: both must
// produce identical results and identical graph side effects (edge
// pruning) on identical graphs.
//
// Unlike Infer it allocates its sweep scratch per call; it shares the
// per-edge/per-node inference kernels (and so stamps the same node and
// edge scratch slots), so the comparison exercises exactly the component
// partition, the partial-mode skip and the rank-ordered rows.
func (inf *Inferencer) InferReference(g *graph.Graph, now model.Epoch, mode Mode) *Result {
	res := &Result{
		Now:       now,
		Partial:   mode == Partial,
		Locations: make(map[model.Tag]model.LocationID),
		Parents:   make(map[model.Tag]model.Tag),
		Observed:  make(map[model.Tag]bool),
	}
	inf.stamp = passStamps.Add(1)
	inf.now = now
	dist := make(map[model.Tag]int32)

	// Layer d=0: the colored nodes.
	var frontier, next []*graph.Node
	g.Nodes(func(n *graph.Node) {
		if !n.Colored(now) {
			return
		}
		dist[n.Tag] = 0
		n.InferLoc, n.LocStamp = n.RecentColor, inf.stamp
		frontier = append(frontier, n)
		res.Observed[n.Tag] = true
		res.Locations[n.Tag] = n.RecentColor
	})
	sortNodes(frontier)
	for _, n := range frontier {
		res.Parents[n.Tag] = tagOf(inf.edgeInference(g, n))
	}

	// Sweep outward, one hop at a time, across the whole graph.
	maxHops := int32(math.MaxInt32)
	if mode == Partial {
		maxHops = int32(inf.cfg.PartialHops)
	}
	for d := int32(1); d <= maxHops && len(frontier) > 0; d++ {
		next = next[:0]
		for _, n := range frontier {
			for _, e := range n.Parents() {
				if _, seen := dist[e.Parent.Tag]; !seen {
					dist[e.Parent.Tag] = d
					next = append(next, e.Parent)
				}
			}
			for _, e := range n.Children() {
				if _, seen := dist[e.Child.Tag]; !seen {
					dist[e.Child.Tag] = d
					next = append(next, e.Child)
				}
			}
		}
		frontier, next = next, frontier
		sortNodes(frontier)
		for _, n := range frontier {
			res.Parents[n.Tag] = tagOf(inf.edgeInference(g, n))
			loc := inf.nodeInference(n)
			if mode == Partial && loc == model.LocationUnknown {
				delete(res.Parents, n.Tag)
				continue
			}
			res.Locations[n.Tag] = loc
		}
	}

	if mode == Complete {
		// Nodes unreached from any colored node, in global tag order.
		var rest []*graph.Node
		g.Nodes(func(n *graph.Node) {
			if _, seen := dist[n.Tag]; !seen {
				rest = append(rest, n)
			}
		})
		sortNodes(rest)
		for _, n := range rest {
			res.Parents[n.Tag] = tagOf(inf.edgeInference(g, n))
			res.Locations[n.Tag] = inf.nodeInference(n)
		}
	}
	return res
}

// sortNodes orders a layer by tag, the comparison sort Infer's layers
// replaced with rank keys.
func sortNodes(nodes []*graph.Node) {
	slices.SortFunc(nodes, func(a, b *graph.Node) int { return cmp.Compare(a.Tag, b.Tag) })
}

// tagOf returns n's tag, or model.NoTag for nil.
func tagOf(n *graph.Node) model.Tag {
	if n == nil {
		return model.NoTag
	}
	return n.Tag
}
