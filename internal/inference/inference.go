package inference

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"spire/internal/graph"
	"spire/internal/model"
	"spire/internal/trace"
)

// Result is the outcome of one inference pass: the most likely location
// and most likely container per object.
type Result struct {
	Now     model.Epoch
	Partial bool

	// Locations maps each interpreted object to its most likely location,
	// which may be model.LocationUnknown (the object is away from every
	// known location — a missing object under complete inference).
	// Objects whose verdict was withheld (partial inference) or that lie
	// outside the partial halo are absent.
	Locations map[model.Tag]model.LocationID

	// Parents maps each interpreted object to its most likely container;
	// model.NoTag records the positive verdict "no container". Objects
	// outside the partial halo are absent.
	Parents map[model.Tag]model.Tag

	// Observed marks the objects read in this epoch (the colored nodes).
	Observed map[model.Tag]bool
}

// Clone returns a deep copy of the result with freshly allocated maps.
// Infer reuses its Result across calls; callers that retain a result past
// the next Infer call — or hand it to another goroutine — must clone it.
func (r *Result) Clone() *Result {
	if r == nil {
		return nil
	}
	out := &Result{
		Now:       r.Now,
		Partial:   r.Partial,
		Locations: make(map[model.Tag]model.LocationID, len(r.Locations)),
		Parents:   make(map[model.Tag]model.Tag, len(r.Parents)),
		Observed:  make(map[model.Tag]bool, len(r.Observed)),
	}
	for k, v := range r.Locations {
		out.Locations[k] = v
	}
	for k, v := range r.Parents {
		out.Parents[k] = v
	}
	for k, v := range r.Observed {
		out.Observed[k] = v
	}
	return out
}

// reset prepares a pooled result for a new pass, clearing (or lazily
// allocating) its maps.
func (r *Result) reset(now model.Epoch, partial bool) {
	r.Now = now
	r.Partial = partial
	if r.Locations == nil {
		r.Locations = make(map[model.Tag]model.LocationID)
		r.Parents = make(map[model.Tag]model.Tag)
		r.Observed = make(map[model.Tag]bool)
		return
	}
	clear(r.Locations)
	clear(r.Parents)
	clear(r.Observed)
}

// PassStats summarizes one Infer call for telemetry: how many connected
// components were swept versus skipped, and how many nodes each path
// covered. Under complete inference a component is "clean" when its
// cached verdict slab was reused; under partial inference, when it had no
// reading this epoch and therefore lies outside every halo.
type PassStats struct {
	DirtyComponents int // components swept this pass
	CleanComponents int // components skipped (cache hit or outside all halos)
	NodesInferred   int // nodes that went through edge/node inference
	NodesCached     int // nodes whose verdicts were served from a slab
}

// compSlab caches the verdicts of a settled component: every member
// inferred LocationUnknown at epoch `epoch`. All-unknown is an absorbing
// state for an untouched component — fading belief only decays further,
// and with no known member there is nothing to propagate (Eqs. 3-4) — and
// its parent verdicts (Eqs. 1-2) depend only on per-edge state that
// dirtying would have invalidated, so the slab replays the sweep's exact
// output while DirtyAt() <= epoch. An epoch of model.EpochNone marks the
// slab invalid (the component was re-swept and found unsettled); the
// backing arrays are kept to avoid churn when it settles again.
type compSlab struct {
	epoch model.Epoch
	tags  []model.Tag
	pars  []model.Tag
}

// Inferencer runs the iterative inference algorithm. It keeps reusable
// scratch buffers — including the Result it returns — so one Inferencer
// should be reused across epochs; it is not safe for concurrent use.
type Inferencer struct {
	cfg  Config
	zipf *graph.ZipfTable // Eq. 1 weights, sized to the graph's history length

	// rec is the optional decision-provenance recorder (nil when
	// untraced); now mirrors the epoch of the running pass for records.
	rec *trace.Recorder
	now model.Epoch

	// scratch reused across epochs
	res      Result // pooled result; see Infer's contract
	stamp    uint64 // stamp of the running pass, matched against the node and edge scratch stamps
	frontier []*graph.Node
	next     []*graph.Node
	rest     []*graph.Node
	pruned   []*graph.Edge
	props    []propagation
	probs    []propagation           // per-location belief of the node under inference
	slabs    map[model.Tag]*compSlab // settled-component cache, keyed by component id
	stats    PassStats
}

// SetTracer attaches a decision-provenance recorder: edge inference
// records its Eq. 1-2 container choice (with the normalized probability
// and colocation evidence), node inference its Eq. 3-4 location choice.
// A nil recorder disables recording. Recording is observation-only.
func (inf *Inferencer) SetTracer(rec *trace.Recorder) { inf.rec = rec }

// LastStats returns the component/node accounting of the most recent
// Infer call.
func (inf *Inferencer) LastStats() PassStats { return inf.stats }

// passStamps issues a process-wide unique stamp per inference pass, so
// the per-edge and per-node scratch slots of concurrently running
// Inferencers (each on its own graph) and of successive Inferencers
// sharing one graph can never read each other's state as fresh.
var passStamps atomic.Uint64

// propagation is a location with a probability mass: one determined
// neighbor color feeding node inference, or one candidate's summed belief.
type propagation struct {
	loc model.LocationID
	p   float64
}

// New creates an Inferencer for graphs with the given co-location history
// size.
func New(cfg Config, historySize int) (*Inferencer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if historySize < 1 || historySize > graph.MaxHistorySize {
		return nil, fmt.Errorf("inference: history size %d out of range", historySize)
	}
	return &Inferencer{
		cfg:   cfg,
		zipf:  graph.ZipfWeights(historySize, cfg.Alpha),
		slabs: make(map[model.Tag]*compSlab),
	}, nil
}

// Config returns the inference parameters in use.
func (inf *Inferencer) Config() Config { return inf.cfg }

// Infer runs one inference pass over g for epoch now.
//
// The iterative algorithm (§IV-C) classifies nodes by their hop distance d
// from the nearest colored node and sweeps outward: edge inference runs for
// d=0 (observed) nodes first; then, layer by layer, edge inference followed
// by node inference for uncolored nodes, so colors and edge probabilities
// settled at distance d feed the inference at distance d+1. Nodes with no
// colored node in their component are processed last, in tag order, using
// whatever colors have settled.
//
// The sweep runs one connected component at a time, in id order, on the
// calling goroutine: no edge ever crosses a component boundary, so the
// layer-interleaved global sweep of the paper produces the same verdicts
// as a component-at-a-time sweep. Components exist to skip clean work — a
// settled component untouched since its last sweep replays its cached
// slab, and under Partial mode an unread component intersects no halo and
// is skipped outright. Outputs are byte-identical with the cache on or
// off.
//
// Under Partial mode only nodes with d ≤ PartialHops are interpreted and
// "unknown" location verdicts are withheld from the result (§IV-D).
//
// The returned Result and its maps are scratch owned by the Inferencer:
// they stay valid until the next Infer call on the same Inferencer, which
// resets and reuses them. Callers that keep a result longer — or pass it
// to another goroutine — must take a Clone first.
func (inf *Inferencer) Infer(g *graph.Graph, now model.Epoch, mode Mode) *Result {
	res := &inf.res
	res.reset(now, mode == Partial)
	inf.stamp = passStamps.Add(1)
	inf.now = now
	inf.stats = PassStats{}
	caching := mode == Complete && !inf.cfg.DisableCache

	// Edges pruned mid-sweep only mark their component stale; comps and
	// the member lists stay as they are until the next Components call.
	comps := g.Components(now)
	for _, c := range comps {
		// A component read this epoch has DirtyAt() == now (update step 1
		// touches every read tag), so under Partial mode any other
		// component holds no colored node: no verdicts, no side effects.
		if mode == Partial && c.DirtyAt() != now {
			inf.stats.CleanComponents++
			continue
		}
		if caching {
			if sl := inf.reusableSlab(c); sl != nil {
				fillFromSlab(sl, res)
				inf.stats.CleanComponents++
				inf.stats.NodesCached += c.Len()
				continue
			}
		}
		inf.stats.DirtyComponents++
		settled := inf.sweepComponent(g, c, res, mode)
		if !caching {
			continue
		}
		if settled {
			inf.storeSlab(c, res, now)
		} else if sl := inf.slabs[c.ID()]; sl != nil {
			sl.epoch = model.EpochNone
		}
	}
	if caching {
		// Drop slabs whose component id no longer exists (merged away or
		// removed).
		inf.evictDeadSlabs(comps)
	}
	return res
}

// reusableSlab returns the slab that replays component c's complete-mode
// sweep, or nil when c must be swept: no settled slab, the component was
// dirtied after the slab epoch, or a member is traced (provenance
// records must fire every epoch, so traced components are re-inferred —
// the recompute of a settled component has no graph side effects and
// reproduces the slab's verdicts exactly).
func (inf *Inferencer) reusableSlab(c *graph.Component) *compSlab {
	sl := inf.slabs[c.ID()]
	if sl == nil || sl.epoch == model.EpochNone || c.DirtyAt() > sl.epoch {
		return nil
	}
	if inf.rec != nil {
		for _, n := range c.Members() {
			if inf.rec.Traces(n.Tag) {
				return nil
			}
		}
	}
	return sl
}

// fillFromSlab replays a settled component's verdicts into res: every
// member is at its last-known location with probability below the
// unknown mass, i.e. LocationUnknown, with its cached parent verdict.
func fillFromSlab(sl *compSlab, res *Result) {
	for i, tag := range sl.tags {
		res.Locations[tag] = model.LocationUnknown
		res.Parents[tag] = sl.pars[i]
	}
}

// storeSlab records the verdicts of a component that settled at epoch
// now, reusing the previous slab's storage when present.
func (inf *Inferencer) storeSlab(c *graph.Component, res *Result, now model.Epoch) {
	sl := inf.slabs[c.ID()]
	if sl == nil {
		sl = &compSlab{}
		inf.slabs[c.ID()] = sl
	}
	sl.epoch = now
	sl.tags = sl.tags[:0]
	sl.pars = sl.pars[:0]
	for _, n := range c.Members() {
		sl.tags = append(sl.tags, n.Tag)
		sl.pars = append(sl.pars, res.Parents[n.Tag])
	}
}

// evictDeadSlabs drops slabs keyed by component ids that no longer exist,
// bounding cache memory. comps is sorted by id (Graph.Components).
func (inf *Inferencer) evictDeadSlabs(comps []*graph.Component) {
	if len(inf.slabs) == 0 {
		return
	}
	for id := range inf.slabs {
		_, live := slices.BinarySearchFunc(comps, id, func(c *graph.Component, id model.Tag) int {
			return cmp.Compare(c.ID(), id)
		})
		if !live {
			delete(inf.slabs, id)
		}
	}
}

// sweepComponent runs the §IV-C layered sweep over one component, writing
// its verdicts into res, and reports whether the component settled:
// complete mode, and every member verdict came out LocationUnknown — the
// absorbing state that makes the verdicts cacheable. The distance
// classification and the settled colors live in the pass-stamped
// InferDist/DistStamp and InferLoc/LocStamp scratch on the nodes (a stamp
// other than the running pass means "not reached" / "not settled"), so no
// per-pass map is needed.
func (inf *Inferencer) sweepComponent(g *graph.Graph, c *graph.Component, res *Result, mode Mode) bool {
	stamp, now := inf.stamp, inf.now
	settled := mode == Complete

	// Layer d=0: the colored members. Their location verdict is their
	// observation; edge inference estimates their most likely parents.
	inf.frontier = inf.frontier[:0]
	for _, n := range c.Members() {
		if n.Colored(now) {
			n.InferDist, n.DistStamp = 0, stamp
			n.InferLoc, n.LocStamp = n.RecentColor, stamp
			inf.frontier = append(inf.frontier, n)
			res.Observed[n.Tag] = true
			res.Locations[n.Tag] = n.RecentColor
		}
	}
	if len(inf.frontier) > 0 {
		settled = false
	}
	sortNodes(inf.frontier)
	for _, n := range inf.frontier {
		res.Parents[n.Tag] = inf.edgeInference(g, n)
	}
	inf.stats.NodesInferred += len(inf.frontier)

	// Sweep outward, one hop at a time.
	maxHops := int32(math.MaxInt32)
	if mode == Partial {
		maxHops = int32(inf.cfg.PartialHops)
	}
	for d := int32(1); d <= maxHops && len(inf.frontier) > 0; d++ {
		inf.next = inf.next[:0]
		for _, n := range inf.frontier {
			for _, e := range n.Parents() {
				if p := e.Parent; p.DistStamp != stamp {
					p.InferDist, p.DistStamp = d, stamp
					inf.next = append(inf.next, p)
				}
			}
			for _, e := range n.Children() {
				if ch := e.Child; ch.DistStamp != stamp {
					ch.InferDist, ch.DistStamp = d, stamp
					inf.next = append(inf.next, ch)
				}
			}
		}
		inf.frontier, inf.next = inf.next, inf.frontier
		sortNodes(inf.frontier)
		for _, n := range inf.frontier {
			parent := inf.edgeInference(g, n)
			loc := inf.nodeInference(n)
			if mode == Partial && loc == model.LocationUnknown {
				// Withhold: with only a subset of readers having read this
				// epoch, "unknown" is more likely a not-yet-read location
				// than a true disappearance.
				continue
			}
			res.Parents[n.Tag] = parent
			res.Locations[n.Tag] = loc
			if loc != model.LocationUnknown {
				settled = false
			}
		}
		inf.stats.NodesInferred += len(inf.frontier)
	}

	if mode == Complete {
		// Members unreached from any colored node — the whole component,
		// when it holds none, or nodes stranded by mid-sweep pruning —
		// are processed last, in tag order, using whatever colors have
		// settled.
		inf.rest = inf.rest[:0]
		for _, n := range c.Members() {
			if n.DistStamp != stamp {
				inf.rest = append(inf.rest, n)
			}
		}
		sortNodes(inf.rest)
		for _, n := range inf.rest {
			res.Parents[n.Tag] = inf.edgeInference(g, n)
			loc := inf.nodeInference(n)
			res.Locations[n.Tag] = loc
			if loc != model.LocationUnknown {
				settled = false
			}
		}
		inf.stats.NodesInferred += len(inf.rest)
	}
	return settled
}

// edgeInference applies Eqs. 1-2 to the incoming edges of n, stores each
// edge's probability for later color propagation, optionally prunes
// low-confidence edges, and returns the most likely container (model.NoTag
// when none). The parents span is walked in ascending tag order, so the
// Eq. 2 normalizer is summed in an order fixed by the graph alone and the
// lowest tag wins a confidence tie by being met first.
func (inf *Inferencer) edgeInference(g *graph.Graph, n *graph.Node) model.Tag {
	traced := inf.rec != nil && inf.rec.Traces(n.Tag)
	if n.NumParents() == 0 {
		if traced {
			inf.recordEdgeChoice(n.Tag, model.NoTag, 0, 0)
		}
		return model.NoTag
	}
	beta := inf.cfg.Beta
	if inf.cfg.AdaptiveBeta {
		beta = n.AdaptiveBeta(inf.cfg.Beta)
	}

	inf.pruned = inf.pruned[:0]
	var z float64
	var best *graph.Edge
	var bestConf float64
	for _, e := range n.Parents() {
		conf := beta * e.History.Weight(inf.zipf)
		if n.ConfirmedEdge == e {
			conf += 1 - beta
		}
		if inf.cfg.PruneThreshold > 0 && conf < inf.cfg.PruneThreshold {
			inf.pruned = append(inf.pruned, e)
			continue
		}
		z += conf
		e.InferProb = conf // normalized below
		e.InferStamp = inf.stamp
		if best == nil || conf > bestConf {
			best, bestConf = e, conf
		}
	}
	for _, e := range inf.pruned {
		if inf.rec != nil {
			inf.rec.Record(trace.Record{
				Epoch: inf.now, Tag: e.Child.Tag, Mech: trace.MechEdgePruned,
				Loc: model.LocationNone, Other: e.Parent.Tag,
			})
		}
		g.RemoveEdge(e)
	}
	if best == nil || z == 0 {
		// No surviving edge carries any belief: report "no container"
		// rather than an arbitrary pick.
		if traced {
			inf.recordEdgeChoice(n.Tag, model.NoTag, 0, 0)
		}
		return model.NoTag
	}
	for _, e := range n.Parents() {
		e.InferProb /= z
	}
	if traced {
		inf.recordEdgeChoice(n.Tag, best.Parent.Tag, bestConf/z, int32(best.History.Ones()))
	}
	return best.Parent.Tag
}

// recordEdgeChoice records the Eq. 1-2 container verdict for a traced
// tag; parent NoTag is the positive "no container" verdict.
func (inf *Inferencer) recordEdgeChoice(tag, parent model.Tag, prob float64, coloc int32) {
	inf.rec.Record(trace.Record{
		Epoch: inf.now, Tag: tag, Mech: trace.MechEdgeInference,
		Loc: model.LocationNone, Other: parent, Prob: prob, Aux: coloc,
	})
}

// nodeInference applies Eqs. 3-4 to an uncolored node, settles the verdict
// in the node's InferLoc slot and returns it: the most likely location
// color, possibly model.LocationUnknown. Colors settled earlier in the
// pass propagate through incident edges weighted by the edge probabilities
// assigned during edge inference.
func (inf *Inferencer) nodeInference(n *graph.Node) model.LocationID {
	gamma := inf.cfg.Gamma
	inf.probs = inf.probs[:0]

	// The fading belief in the most recent observation.
	fade := 0.0
	if n.SeenAt != model.EpochNone && n.RecentColor.Known() {
		age := float64(inf.now - n.SeenAt)
		if age < 1 {
			age = 1
		}
		fade = 1 / math.Pow(age, inf.cfg.Theta)
		inf.addBelief(n.RecentColor, (1-gamma)*fade)
	}
	pUnknown := (1 - gamma) * (1 - fade)

	// Colors propagated through edges from neighbors whose color is
	// already determined (observed or inferred in an earlier layer),
	// weighted by edge probability and normalized by Z2 over the
	// propagating edges only. Parents then children, each span ascending:
	// the order of every float sum below is fixed by the graph alone.
	inf.props = inf.props[:0]
	for _, e := range n.Parents() {
		inf.propagate(e, e.Parent)
	}
	for _, e := range n.Children() {
		inf.propagate(e, e.Child)
	}
	var z2 float64
	for _, pr := range inf.props {
		z2 += pr.p
	}
	if z2 > 0 {
		for _, pr := range inf.props {
			inf.addBelief(pr.loc, gamma*pr.p/z2)
		}
	}

	// Most likely color; known locations win ties against "unknown", and
	// lower location IDs win ties among known locations (determinism).
	best, bestP := model.LocationUnknown, pUnknown
	for _, c := range inf.probs {
		if c.p > bestP || (c.p == bestP && (best == model.LocationUnknown || c.loc < best)) {
			best, bestP = c.loc, c.p
		}
	}
	n.InferLoc, n.LocStamp = best, inf.stamp
	if inf.rec != nil && inf.rec.Traces(n.Tag) {
		inf.rec.Record(trace.Record{
			Epoch: inf.now, Tag: n.Tag, Mech: trace.MechNodeInference,
			Loc: best, Prob: bestP, Aux: int32(len(inf.props)),
		})
	}
	return best
}

// propagate queues other's settled color, if it has a known one this pass,
// with the probability edge inference gave e.
func (inf *Inferencer) propagate(e *graph.Edge, other *graph.Node) {
	if other.LocStamp != inf.stamp || !other.InferLoc.Known() {
		return
	}
	if e.InferStamp != inf.stamp || e.InferProb == 0 {
		return
	}
	inf.props = append(inf.props, propagation{loc: other.InferLoc, p: e.InferProb})
}

// addBelief adds mass to loc's entry in probs. A node sees a handful of
// distinct colors at most, so a linear probe beats a map.
func (inf *Inferencer) addBelief(loc model.LocationID, mass float64) {
	for i := range inf.probs {
		if inf.probs[i].loc == loc {
			inf.probs[i].p += mass
			return
		}
	}
	inf.probs = append(inf.probs, propagation{loc: loc, p: mass})
}

func sortNodes(nodes []*graph.Node) {
	slices.SortFunc(nodes, func(a, b *graph.Node) int { return cmp.Compare(a.Tag, b.Tag) })
}
