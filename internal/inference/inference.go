package inference

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"spire/internal/graph"
	"spire/internal/model"
	"spire/internal/trace"
)

// Result is the outcome of one inference pass: the most likely location
// and most likely container per object, as one Verdict row per
// interpreted object sorted by tag. Read it through Rows or Lookup.
type Result struct {
	Now     model.Epoch
	Partial bool

	// Locations, Parents and Observed are the sparse input form, for
	// producers outside the pass (ground truth, baselines): an object's
	// row is its Locations entry, with its Parents and Observed entries
	// when present. Infer leaves them nil. When Locations is non-nil,
	// Rows rebuilds the rows from the maps on every call, so a caller may
	// clear and refill them between reads.
	Locations map[model.Tag]model.LocationID
	Parents   map[model.Tag]model.Tag
	Observed  map[model.Tag]bool

	rows []Verdict
	// prow holds each row's chosen container's row, -1 when it has none
	// or the container has no row; valid while it is as long as rows.
	prow []int32

	// Conflict-resolution scratch, reused across epochs: the containment
	// lists and the containers in Table I order (see group), and the poll
	// state.
	head, next, order []int32
	settled           []bool
	votes             []propagation
}

// Verdict is one interpreted object's row. Objects whose verdict was
// withheld (partial inference) or that lie outside the partial halo have
// no row.
type Verdict struct {
	Tag      model.Tag
	Location model.LocationID // possibly LocationUnknown: missing from every known location
	Observed bool             // read in this epoch (a colored node)
	// Parent is the most likely container; model.NoTag is the positive
	// verdict "no container". HasParent is false only for a sparse-form
	// object with no Parents entry, whose containment is left as it was.
	HasParent bool
	Parent    model.Tag
}

// Rows returns the verdicts sorted by tag. The slice is the result's own
// storage: conflict resolution updates it in place.
func (r *Result) Rows() []Verdict {
	if r.Locations != nil {
		r.rows = r.rows[:0]
		for g, loc := range r.Locations {
			p, ok := r.Parents[g]
			r.rows = append(r.rows, Verdict{Tag: g, Location: loc, Parent: p, HasParent: ok, Observed: r.Observed[g]})
		}
		slices.SortFunc(r.rows, func(a, b Verdict) int { return cmp.Compare(a.Tag, b.Tag) })
		r.prow, r.head = r.prow[:0], r.head[:0]
	}
	return r.rows
}

// Lookup returns tag's row, or the zero Verdict and false when the result
// has none.
func (r *Result) Lookup(tag model.Tag) (Verdict, bool) {
	rows := r.Rows()
	if i, ok := findRow(rows, tag); ok {
		return rows[i], true
	}
	return Verdict{}, false
}

// CopyTo overwrites dst with r's verdicts in row form, reusing dst's
// storage.
func (r *Result) CopyTo(dst *Result) {
	dst.Now, dst.Partial = r.Now, r.Partial
	dst.Locations, dst.Parents, dst.Observed = nil, nil, nil
	dst.rows = append(dst.rows[:0], r.Rows()...)
	dst.prow, dst.head = append(dst.prow[:0], r.prow...), dst.head[:0]
}

// Clone returns a deep copy of the result in row form. Infer reuses its
// Result across calls; callers that retain a result past the next Infer
// call — or hand it to another goroutine — must clone it.
func (r *Result) Clone() *Result {
	if r == nil {
		return nil
	}
	out := &Result{}
	r.CopyTo(out)
	return out
}

// add writes the row of an object the sweep interpreted, and its chosen
// container's rank (nil: none), at its node's rank and marks the rank
// present.
func (inf *Inferencer) add(n *graph.Node, loc model.LocationID, parent *graph.Node, observed bool) {
	r := n.Rank()
	v, pr := Verdict{Tag: n.Tag, Location: loc, HasParent: true, Observed: observed}, int32(-1)
	if parent != nil {
		v.Parent, pr = parent.Tag, int32(parent.Rank())
	}
	inf.res.rows[r], inf.res.prow[r] = v, pr
	inf.present[r>>6] |= 1 << (r & 63)
}

// compactRows moves the present rows, in rank and so in tag order, to the
// front of the rows' backing, turns each container rank into the
// container's row (its present ranks below it, by popcount), and clears
// the bitmap.
func (inf *Inferencer) compactRows() {
	rows, prow, present, k := inf.res.rows, inf.res.prow, inf.present, int32(0)
	below := slices.Grow(inf.below[:0], len(present))[:len(present)]
	for wi, w := range present {
		below[wi] = k
		k += int32(bits.OnesCount64(w))
	}
	k = 0
	for wi, w := range present {
		for ; w != 0; w &= w - 1 {
			r := wi<<6 | bits.TrailingZeros64(w)
			p := prow[r]
			rows[k], prow[k] = rows[r], -1
			if p >= 0 && present[p>>6]&(1<<(p&63)) != 0 {
				prow[k] = below[p>>6] + int32(bits.OnesCount64(present[p>>6]&(1<<(p&63)-1)))
			}
			k++
		}
	}
	clear(present)
	inf.res.rows, inf.res.prow, inf.below = rows[:k], prow[:k], below
}

// findRow binary-searches tag-sorted rows for tag.
func findRow(rows []Verdict, tag model.Tag) (int, bool) {
	return slices.BinarySearchFunc(rows, tag, func(v Verdict, t model.Tag) int { return cmp.Compare(v.Tag, t) })
}

// PassStats summarizes one Infer call for telemetry and the flight
// recorder: how many connected components were swept versus skipped, how
// many nodes the sweep covered, and how many edges it pruned. A component is "clean" when partial inference skipped it: it
// had no reading this epoch and therefore lies outside every halo.
// Complete inference sweeps every component.
type PassStats struct {
	DirtyComponents int // components swept this pass
	CleanComponents int // components skipped by partial inference
	NodesInferred   int // nodes that went through edge/node inference
	EdgesPruned     int // low-confidence edges pruned (§IV-C)
	NodesCached     int // always zero; kept until benchmark/ stops reading it
}

// Inferencer runs the iterative inference algorithm. It keeps reusable
// scratch buffers — including the Result it returns — so one Inferencer
// should be reused across epochs; it is not safe for concurrent use.
type Inferencer struct {
	cfg Config

	// rec is the optional decision-provenance recorder (nil when
	// untraced); now mirrors the epoch of the running pass for records.
	rec *trace.Recorder
	now model.Epoch

	// scratch reused across epochs
	fades    []float64 // Eq. 3's fade 1/age^θ by integer age, filled on first use; see fade
	res      Result    // pooled result; see Infer's contract
	present  []uint64  // bitmap over node ranks: which rows the running pass wrote
	stamp    uint64    // stamp of the running pass, matched against the node and edge scratch stamps
	below    []int32   // per bitmap word: present ranks below it; see compactRows
	frontier []*graph.Node
	keys     []int32 // the next layer's ranks
	rest     []*graph.Node
	pruned   []*graph.Edge
	props    []propagation
	probs    []propagation // per-location belief of the node under inference
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
// neighbor color feeding node inference, one candidate's summed belief,
// or one location's Table I vote count.
type propagation struct {
	loc model.LocationID
	p   float64
}

// New creates an Inferencer.
func New(cfg Config) (*Inferencer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Inferencer{cfg: cfg}, nil
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
// as a component-at-a-time sweep. Under Partial mode an unread component
// intersects no halo and is skipped outright; Complete mode sweeps every
// component. Each row is written at its node's rank in the graph's tag
// order, so the rows come out tag-sorted with no sort.
//
// Under Partial mode only nodes with d ≤ PartialHops are interpreted and
// "unknown" location verdicts are withheld from the result (§IV-D).
//
// The returned Result and its rows are scratch owned by the Inferencer:
// they stay valid until the next Infer call on the same Inferencer, which
// resets and reuses them. Callers that keep a result longer — or pass it
// to another goroutine — must take a Clone first.
func (inf *Inferencer) Infer(g *graph.Graph, now model.Epoch, mode Mode) *Result {
	res := &inf.res
	res.Now, res.Partial = now, mode == Partial
	inf.stamp = passStamps.Add(1)
	inf.now = now
	inf.stats = PassStats{}

	// Edges pruned mid-sweep only mark their component stale; comps, the
	// member lists and the ranks stay as they are until the next
	// Components call. The rows and the bitmap grow only at a new peak
	// node count; compactRows leaves the bitmap clear.
	comps := g.Components(now)
	res.rows = slices.Grow(res.rows[:0], g.Len())[:g.Len()]
	res.prow, res.head = slices.Grow(res.prow[:0], g.Len())[:g.Len()], res.head[:0]
	inf.present = slices.Grow(inf.present[:0], (g.Len()+63)>>6)[:(g.Len()+63)>>6]
	for _, c := range comps {
		// A component read this epoch has DirtyAt() == now (update step 1
		// touches every read tag), so under Partial mode any other
		// component holds no colored node: no verdicts, no side effects.
		if mode == Partial && c.DirtyAt() != now {
			inf.stats.CleanComponents++
			continue
		}
		inf.stats.DirtyComponents++
		inf.sweepComponent(g, c, mode)
	}
	inf.compactRows()
	return res
}

// sweepComponent runs the §IV-C layered sweep over one component, writing
// its verdicts at their ranks. Reached nodes and the settled colors live
// in the pass-stamped DistStamp and InferLoc/LocStamp scratch on the nodes
// (a stamp other than the running pass means "not reached" / "not
// settled"), so no per-pass map is needed. The members are tag-sorted, so
// the d=0 layer and the unreached rest, filters of them, are too; layers
// d ≥ 1 sort their ranks, fixed from Components to the end of the pass.
func (inf *Inferencer) sweepComponent(g *graph.Graph, c *graph.Component, mode Mode) {
	stamp, now := inf.stamp, inf.now

	// Layer d=0: the colored members. Their location verdict is their
	// observation; edge inference estimates their most likely parents.
	inf.frontier = inf.frontier[:0]
	for _, n := range c.Members() {
		if n.Colored(now) {
			n.DistStamp = stamp
			n.InferLoc, n.LocStamp = n.RecentColor, stamp
			inf.frontier = append(inf.frontier, n)
		}
	}
	for _, n := range inf.frontier {
		inf.add(n, n.RecentColor, inf.edgeInference(g, n), true)
	}
	inf.stats.NodesInferred += len(inf.frontier)

	// Sweep outward, one hop at a time.
	maxHops := int32(math.MaxInt32)
	if mode == Partial {
		maxHops = int32(inf.cfg.PartialHops)
	}
	for d := int32(1); d <= maxHops && len(inf.frontier) > 0; d++ {
		keys := inf.keys[:0]
		for _, n := range inf.frontier {
			for _, e := range n.Parents() {
				if p := e.Parent; p.DistStamp != stamp {
					p.DistStamp = stamp
					keys = append(keys, int32(p.Rank()))
				}
			}
			for _, e := range n.Children() {
				if ch := e.Child; ch.DistStamp != stamp {
					ch.DistStamp = stamp
					keys = append(keys, int32(ch.Rank()))
				}
			}
		}
		slices.Sort(keys)
		inf.frontier, inf.keys = inf.frontier[:0], keys
		for _, r := range keys {
			inf.frontier = append(inf.frontier, g.Ranked(r))
		}
		for _, n := range inf.frontier {
			parent := inf.edgeInference(g, n)
			loc := inf.nodeInference(n)
			if mode == Partial && loc == model.LocationUnknown {
				// Withhold: with only a subset of readers having read this
				// epoch, "unknown" is more likely a not-yet-read location
				// than a true disappearance.
				continue
			}
			inf.add(n, loc, parent, false)
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
		for _, n := range inf.rest {
			parent := inf.edgeInference(g, n)
			inf.add(n, inf.nodeInference(n), parent, false)
		}
		inf.stats.NodesInferred += len(inf.rest)
	}
}

// edgeInference applies Eqs. 1-2 to the incoming edges of n, stores each
// edge's probability for later color propagation, optionally prunes
// low-confidence edges, and returns the most likely container's node (nil
// when none). The parents span is walked in ascending tag order, so the
// Eq. 2 normalizer is summed in an order fixed by the graph alone and the
// lowest tag wins a confidence tie by being met first.
func (inf *Inferencer) edgeInference(g *graph.Graph, n *graph.Node) *graph.Node {
	traced := inf.rec.Traces(n.Tag)
	if n.NumParents() == 0 {
		if traced {
			inf.recordEdgeChoice(n.Tag, model.NoTag, 0, 0)
		}
		return nil
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
		conf := float64(beta * e.History.Weight()) // rounded: never fused into the sum below
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
	inf.stats.EdgesPruned += len(inf.pruned)
	for _, e := range inf.pruned {
		if traced {
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
		return nil
	}
	for _, e := range n.Parents() {
		e.InferProb /= z
	}
	if traced {
		inf.recordEdgeChoice(n.Tag, best.Parent.Tag, bestConf/z, int32(best.History.Ones()))
	}
	return best.Parent
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
		fade = inf.fade(max(inf.now-n.SeenAt, 1))
		inf.probs = addMass(inf.probs, n.RecentColor, float64((1-gamma)*fade)) // rounded, as in edgeInference
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
			inf.probs = addMass(inf.probs, pr.loc, gamma*pr.p/z2)
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
	if inf.rec.Traces(n.Tag) {
		inf.rec.Record(trace.Record{
			Epoch: inf.now, Tag: n.Tag, Mech: trace.MechNodeInference,
			Loc: best, Prob: bestP, Aux: int32(len(inf.props)),
		})
	}
	return best
}

// fadeCap bounds the fade table; older ages compute their fade directly.
const fadeCap = 1 << 12

// fade returns Eq. 3's fading belief 1/age^θ for an integer age ≥ 1. Ages
// below fadeCap read it from a table that grows to the oldest age met,
// each entry computed once by the same expression.
func (inf *Inferencer) fade(age model.Epoch) float64 {
	if age >= fadeCap {
		return 1 / math.Pow(float64(age), inf.cfg.Theta)
	}
	for model.Epoch(len(inf.fades)) <= age {
		inf.fades = append(inf.fades, 1/math.Pow(float64(len(inf.fades)), inf.cfg.Theta))
	}
	return inf.fades[age]
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

// addMass adds mass to loc's entry in ps. A node sees a handful of
// distinct colors at most, so a linear probe beats a map.
func addMass(ps []propagation, loc model.LocationID, mass float64) []propagation {
	for i := range ps {
		if ps[i].loc == loc {
			ps[i].p += mass
			return ps
		}
	}
	return append(ps, propagation{loc: loc, p: mass})
}
