package inference

import (
	"math/rand"
	"testing"

	"spire/internal/epc"
	"spire/internal/graph"
	"spire/internal/model"
)

const (
	locA = model.LocationID(0) // dock
	locB = model.LocationID(1) // belt
	locC = model.LocationID(2) // packaging
)

var (
	dockReader = &model.Reader{ID: 1, Location: locA, Period: 1}
	beltReader = &model.Reader{ID: 2, Location: locB, Period: 1,
		Confirming: true, ConfirmLevel: model.LevelCase}
	packReader = &model.Reader{ID: 3, Location: locC, Period: 1}
)

func tag(t *testing.T, lvl model.Level, serial uint32) model.Tag {
	t.Helper()
	return epc.MustEncode(epc.Identity{Level: lvl, Company: 1, Serial: serial})
}

func levelOf(g model.Tag) model.Level {
	l, _ := epc.LevelOf(g)
	return l
}

func newGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.New(graph.Config{HistorySize: 8})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newInf(t *testing.T, cfg Config) *Inferencer {
	t.Helper()
	inf, err := New(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	return inf
}

func mustUpdate(t *testing.T, g *graph.Graph, r *model.Reader, now model.Epoch, tags ...model.Tag) {
	t.Helper()
	if err := g.Update(r, tags, now); err != nil {
		t.Fatalf("Update: %v", err)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := []Config{
		{Alpha: -1, Beta: 0.4, Gamma: 0.4, Theta: 1, PartialHops: 1},
		{Beta: 1.5, Gamma: 0.4, Theta: 1, PartialHops: 1},
		{Beta: 0.4, Gamma: -0.1, Theta: 1, PartialHops: 1},
		{Beta: 0.4, Gamma: 0.4, Theta: -2, PartialHops: 1},
		{Beta: 0.4, Gamma: 0.4, Theta: 1, PruneThreshold: -1, PartialHops: 1},
		{Beta: 0.4, Gamma: 0.4, Theta: 1, PartialHops: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := New(DefaultConfig(), 0); err == nil {
		t.Error("New with bad history size must fail")
	}
}

func TestScheduleLCM(t *testing.T) {
	s := NewSchedule([]model.Reader{{Period: 2}, {Period: 3}, {Period: 0}})
	if s.CompleteEvery() != 6 {
		t.Fatalf("LCM = %d, want 6", s.CompleteEvery())
	}
	if s.ModeAt(6) != Complete || s.ModeAt(12) != Complete || s.ModeAt(0) != Complete {
		t.Error("multiples of M must run complete inference")
	}
	if s.ModeAt(4) != Partial {
		t.Error("non-multiples must run partial inference")
	}
	uniform := NewSchedule([]model.Reader{{Period: 1}, {Period: 1}})
	for e := model.Epoch(0); e < 5; e++ {
		if uniform.ModeAt(e) != Complete {
			t.Error("M=1 must always be complete")
		}
	}
	if Complete.String() != "complete" || Partial.String() != "partial" {
		t.Error("Mode.String wrong")
	}
}

func TestObservedNodesKeepTheirColor(t *testing.T) {
	g := newGraph(t)
	i1 := tag(t, model.LevelItem, 1)
	mustUpdate(t, g, dockReader, 1, i1)
	res := newInf(t, DefaultConfig()).Infer(g, 1, Complete)
	if res.Locations[i1] != locA {
		t.Errorf("observed node location = %v, want %v", res.Locations[i1], locA)
	}
	if !res.Observed[i1] {
		t.Error("node must be marked observed")
	}
}

func TestEdgeInferencePrefersConfirmedParent(t *testing.T) {
	g := newGraph(t)
	c1 := tag(t, model.LevelCase, 1)
	c2 := tag(t, model.LevelCase, 2)
	i1 := tag(t, model.LevelItem, 1)
	// Belt confirms c1 contains i1.
	mustUpdate(t, g, beltReader, 1, c1, i1)
	// Then all three co-located a couple of epochs: c2 gains history too.
	mustUpdate(t, g, packReader, 2, c1, c2, i1)
	mustUpdate(t, g, packReader, 3, c1, c2, i1)
	res := newInf(t, DefaultConfig()).Infer(g, 3, Complete)
	if res.Parents[i1] != c1 {
		t.Errorf("parent = %d, want confirmed case %d", res.Parents[i1], c1)
	}
}

func TestEdgeInferenceHistoryOutweighsStaleConfirmation(t *testing.T) {
	// With high β the recent co-location history with c2 must eventually
	// outweigh c1's old confirmation.
	g := newGraph(t)
	c1 := tag(t, model.LevelCase, 1)
	c2 := tag(t, model.LevelCase, 2)
	i1 := tag(t, model.LevelItem, 1)
	mustUpdate(t, g, beltReader, 1, c1, i1) // confirm c1→i1
	// i1 then travels with c2 while c1 goes unobserved, so the confirmed
	// edge's co-location history decays to nothing.
	for e := model.Epoch(2); e <= 9; e++ {
		mustUpdate(t, g, packReader, e, c2, i1)
	}
	cfg := DefaultConfig()
	cfg.Beta = 0.9
	res := newInf(t, cfg).Infer(g, 9, Complete)
	if res.Parents[i1] != c2 {
		t.Errorf("parent = %d, want history-backed case %d", res.Parents[i1], c2)
	}
	// With β=0 (all weight on confirmation) c1 must still win.
	cfg.Beta = 0
	res = newInf(t, cfg).Infer(g, 9, Complete)
	if res.Parents[i1] != c1 {
		t.Errorf("β=0 parent = %d, want confirmed case %d", res.Parents[i1], c1)
	}
}

func TestEdgeInferenceNoParent(t *testing.T) {
	g := newGraph(t)
	p := tag(t, model.LevelPallet, 1)
	mustUpdate(t, g, dockReader, 1, p)
	res := newInf(t, DefaultConfig()).Infer(g, 1, Complete)
	if res.Parents[p] != model.NoTag {
		t.Errorf("top-level pallet parent = %d, want none", res.Parents[p])
	}
}

func TestNodeInferenceContinuedStayThenUnknown(t *testing.T) {
	g := newGraph(t)
	i1 := tag(t, model.LevelItem, 1)
	for e := model.Epoch(1); e <= 5; e++ {
		mustUpdate(t, g, dockReader, e, i1)
	}
	inf := newInf(t, DefaultConfig())
	// One missed epoch: believe continued stay.
	res := inf.Infer(g, 6, Complete)
	if res.Locations[i1] != locA {
		t.Errorf("after 1 missed epoch location = %v, want %v (continued stay)", res.Locations[i1], locA)
	}
	if res.Observed[i1] {
		t.Error("missed object must not be marked observed")
	}
	// Long absence: belief fades to "unknown".
	res = inf.Infer(g, 60, Complete)
	if res.Locations[i1] != model.LocationUnknown {
		t.Errorf("after 55 missed epochs location = %v, want unknown", res.Locations[i1])
	}
}

func TestThetaControlsFadeRate(t *testing.T) {
	g := newGraph(t)
	i1 := tag(t, model.LevelItem, 1)
	mustUpdate(t, g, dockReader, 1, i1)

	slow := DefaultConfig()
	slow.Theta = 0.1
	fast := DefaultConfig()
	fast.Theta = 3
	at := model.Epoch(6)
	if got := newInf(t, slow).Infer(g, at, Complete).Locations[i1]; got != locA {
		t.Errorf("low θ must keep believing the stay; got %v", got)
	}
	if got := newInf(t, fast).Infer(g, at, Complete).Locations[i1]; got != model.LocationUnknown {
		t.Errorf("high θ must drop the belief quickly; got %v", got)
	}
}

func TestNodeInferenceMovesWithContainer(t *testing.T) {
	// An item confirmed inside a case follows the case to a new location
	// once its own fading color has decayed (the paper's "movement to a
	// new location" case).
	g := newGraph(t)
	c1 := tag(t, model.LevelCase, 1)
	i1 := tag(t, model.LevelItem, 1)
	mustUpdate(t, g, beltReader, 1, c1, i1) // confirm at belt
	// The case is observed in the packaging area; the item is missed.
	mustUpdate(t, g, packReader, 2, c1)
	mustUpdate(t, g, packReader, 3, c1)
	res := newInf(t, DefaultConfig()).Infer(g, 3, Complete)
	if res.Locations[i1] != locC {
		t.Errorf("item location = %v, want %v (propagated from its container)", res.Locations[i1], locC)
	}
	if res.Parents[i1] != c1 {
		t.Errorf("item parent = %d, want %d", res.Parents[i1], c1)
	}
}

func TestGammaZeroIgnoresContainment(t *testing.T) {
	g := newGraph(t)
	c1 := tag(t, model.LevelCase, 1)
	i1 := tag(t, model.LevelItem, 1)
	mustUpdate(t, g, beltReader, 1, c1, i1)
	for e := model.Epoch(2); e <= 10; e++ {
		mustUpdate(t, g, packReader, e, c1)
	}
	cfg := DefaultConfig()
	cfg.Gamma = 0
	res := newInf(t, cfg).Infer(g, 10, Complete)
	if res.Locations[i1] == locC {
		t.Error("γ=0 must not propagate the container's location")
	}
	cfg.Gamma = 1
	res = newInf(t, cfg).Infer(g, 10, Complete)
	if res.Locations[i1] != locC {
		t.Errorf("γ=1 must fully adopt the container's location; got %v", res.Locations[i1])
	}
}

func TestIterativeInferenceReachesDistanceTwo(t *testing.T) {
	// pallet→case→item chain: only the item is observed; the case (d=1)
	// and the pallet (d=2) must both inherit its color through the chain.
	g := newGraph(t)
	p1 := tag(t, model.LevelPallet, 1)
	c1 := tag(t, model.LevelCase, 1)
	i1 := tag(t, model.LevelItem, 1)
	mustUpdate(t, g, dockReader, 1, p1, c1, i1)
	for e := model.Epoch(2); e <= 6; e++ {
		mustUpdate(t, g, dockReader, e, p1, c1, i1)
	}
	// Move all three to packaging, but only the item is read there; after
	// two epochs the dock color has faded enough for the propagated color
	// to win at both one and two hops.
	mustUpdate(t, g, packReader, 7, i1)
	mustUpdate(t, g, packReader, 8, i1)
	res := newInf(t, DefaultConfig()).Infer(g, 8, Complete)
	if res.Locations[i1] != locC {
		t.Fatalf("item location = %v", res.Locations[i1])
	}
	if res.Locations[c1] != locC {
		t.Errorf("case (d=1) location = %v, want %v", res.Locations[c1], locC)
	}
	if res.Locations[p1] != locC {
		t.Errorf("pallet (d=2) location = %v, want %v", res.Locations[p1], locC)
	}
}

func TestIsolatedComponentStillInterpreted(t *testing.T) {
	g := newGraph(t)
	i1 := tag(t, model.LevelItem, 1)
	i2 := tag(t, model.LevelItem, 2)
	mustUpdate(t, g, dockReader, 1, i1)
	mustUpdate(t, g, packReader, 5, i2)
	// Epoch 6: nothing is read; complete inference must still interpret
	// both isolated nodes.
	res := newInf(t, DefaultConfig()).Infer(g, 6, Complete)
	if _, ok := res.Locations[i1]; !ok {
		t.Error("complete inference must cover unobserved components")
	}
	if got := res.Locations[i2]; got != locC {
		t.Errorf("recently seen isolated node = %v, want %v", got, locC)
	}
}

func TestPartialInferenceWithholdsUnknownAndLimitsHops(t *testing.T) {
	g := newGraph(t)
	p1 := tag(t, model.LevelPallet, 1)
	c1 := tag(t, model.LevelCase, 1)
	i1 := tag(t, model.LevelItem, 1)
	far := tag(t, model.LevelItem, 9)
	mustUpdate(t, g, dockReader, 1, p1, c1, i1)
	mustUpdate(t, g, packReader, 1, far)
	// Epoch 2: only the item is read.
	mustUpdate(t, g, dockReader, 2, i1)

	res := newInf(t, DefaultConfig()).Infer(g, 2, Partial)
	if !res.Partial {
		t.Error("result must be marked partial")
	}
	if _, ok := res.Locations[i1]; !ok {
		t.Error("observed node must be reported")
	}
	if _, ok := res.Locations[c1]; !ok {
		t.Error("d=1 neighbor must be interpreted under partial inference")
	}
	if _, ok := res.Locations[p1]; ok {
		t.Error("d=2 node must be outside the l=1 partial halo")
	}
	if _, ok := res.Locations[far]; ok {
		t.Error("disconnected node must not be interpreted under partial inference")
	}

	// Withholding: a d=1 node whose verdict is "unknown" must be absent.
	g2 := newGraph(t)
	c2 := tag(t, model.LevelCase, 2)
	i2 := tag(t, model.LevelItem, 2)
	mustUpdate(t, g2, dockReader, 1, c2, i2)
	// Long gap, then only the item is read at the dock again; the case's
	// faded belief yields "unknown", which partial inference withholds.
	mustUpdate(t, g2, dockReader, 100, i2)
	cfg := DefaultConfig()
	cfg.Gamma = 0 // suppress propagation so the verdict is driven by fade
	res = newInf(t, cfg).Infer(g2, 100, Partial)
	if loc, ok := res.Locations[c2]; ok {
		t.Errorf("unknown verdict must be withheld under partial inference; got %v", loc)
	}
	if _, ok := res.Parents[c2]; ok {
		t.Error("withheld node must not report a parent either")
	}
	// Complete inference does report the unknown.
	res = newInf(t, cfg).Infer(g2, 100, Complete)
	if loc := res.Locations[c2]; loc != model.LocationUnknown {
		t.Errorf("complete inference verdict = %v, want unknown", loc)
	}
}

func TestPruningRemovesWeakEdges(t *testing.T) {
	g := newGraph(t)
	c1 := tag(t, model.LevelCase, 1)
	c2 := tag(t, model.LevelCase, 2)
	i1 := tag(t, model.LevelItem, 1)
	mustUpdate(t, g, beltReader, 1, c1, i1) // confirmed edge c1→i1
	mustUpdate(t, g, packReader, 2, c1, c2, i1)
	if g.Node(i1).NumParents() != 2 {
		t.Fatalf("setup: want 2 parents, got %d", g.Node(i1).NumParents())
	}
	cfg := DefaultConfig()
	cfg.PruneThreshold = 0.25
	res := newInf(t, cfg).Infer(g, 2, Complete)
	if g.Node(i1).NumParents() != 1 {
		t.Errorf("weak unconfirmed edge must be pruned; %d parents remain", g.Node(i1).NumParents())
	}
	if g.Node(i1).ParentEdge(c1) == nil {
		t.Error("the confirmed edge must survive pruning")
	}
	if res.Parents[i1] != c1 {
		t.Errorf("parent = %d, want %d", res.Parents[i1], c1)
	}
}

func TestResolveConflictsRuleI(t *testing.T) {
	// Observed parent, inferred child in a different location: the child
	// is overridden.
	res := &Result{
		Locations: map[model.Tag]model.LocationID{10: locA, 20: locB},
		Parents:   map[model.Tag]model.Tag{20: 10},
		Observed:  map[model.Tag]bool{10: true},
	}
	ResolveConflicts(res, func(g model.Tag) model.Level {
		if g == 10 {
			return model.LevelCase
		}
		return model.LevelItem
	}, nil)
	if res.Locations[20] != locA {
		t.Errorf("rule I: child location = %v, want %v", res.Locations[20], locA)
	}
	if res.Parents[20] != 10 {
		t.Error("rule I must not end the containment")
	}
}

func TestResolveConflictsRuleII(t *testing.T) {
	// Inferred parent; three observed children, two at B and one at C:
	// the majority moves the parent to B, and the C child's containment
	// ends.
	res := &Result{
		Locations: map[model.Tag]model.LocationID{
			10: locA,                     // inferred parent
			21: locB, 22: locB, 23: locC, // observed children
		},
		Parents:  map[model.Tag]model.Tag{21: 10, 22: 10, 23: 10},
		Observed: map[model.Tag]bool{21: true, 22: true, 23: true},
	}
	ResolveConflicts(res, func(g model.Tag) model.Level {
		if g == 10 {
			return model.LevelCase
		}
		return model.LevelItem
	}, nil)
	if res.Locations[10] != locB {
		t.Errorf("rule II: parent location = %v, want majority %v", res.Locations[10], locB)
	}
	if res.Parents[23] != model.NoTag {
		t.Error("rule II: observed child still in conflict must lose its containment")
	}
	if res.Parents[21] != 10 || res.Parents[22] != 10 {
		t.Error("rule II: agreeing children keep their containment")
	}
}

func TestResolveConflictsRuleIINoMajority(t *testing.T) {
	res := &Result{
		Locations: map[model.Tag]model.LocationID{
			10: locA,
			21: locB, 22: locC,
		},
		Parents:  map[model.Tag]model.Tag{21: 10, 22: 10},
		Observed: map[model.Tag]bool{21: true, 22: true},
	}
	ResolveConflicts(res, func(model.Tag) model.Level { return model.LevelItem }, nil)
	if res.Locations[10] != locA {
		t.Errorf("no majority: parent location must stay %v, got %v", locA, res.Locations[10])
	}
	if res.Parents[21] != model.NoTag || res.Parents[22] != model.NoTag {
		t.Error("no majority: both conflicting observed children end containment")
	}
}

func TestResolveConflictsRuleIII(t *testing.T) {
	// Inferred parent and inferred child disagreeing: majority updates the
	// parent, then the child is overridden.
	res := &Result{
		Locations: map[model.Tag]model.LocationID{
			10: locA,
			21: locB, 22: locB, 23: locC, // all inferred
		},
		Parents:  map[model.Tag]model.Tag{21: 10, 22: 10, 23: 10},
		Observed: map[model.Tag]bool{},
	}
	ResolveConflicts(res, func(g model.Tag) model.Level {
		if g == 10 {
			return model.LevelCase
		}
		return model.LevelItem
	}, nil)
	if res.Locations[10] != locB {
		t.Errorf("rule III: parent = %v, want %v", res.Locations[10], locB)
	}
	if res.Locations[23] != locB {
		t.Errorf("rule III: inferred child overridden to %v, got %v", locB, res.Locations[23])
	}
	if res.Parents[23] != 10 {
		t.Error("rule III keeps the containment")
	}
}

func TestResolveConflictsCascades(t *testing.T) {
	// pallet(observed,A) → case(inferred,B) → item(inferred,B):
	// the pallet pulls the case to A (rule I applied at pallet level
	// first), then the case pulls the item (rule III downstream).
	pallet := model.Tag(1)
	caseT := model.Tag(2)
	item := model.Tag(3)
	res := &Result{
		Locations: map[model.Tag]model.LocationID{pallet: locA, caseT: locB, item: locB},
		Parents:   map[model.Tag]model.Tag{caseT: pallet, item: caseT},
		Observed:  map[model.Tag]bool{pallet: true},
	}
	ResolveConflicts(res, func(g model.Tag) model.Level {
		switch g {
		case pallet:
			return model.LevelPallet
		case caseT:
			return model.LevelCase
		default:
			return model.LevelItem
		}
	}, nil)
	if res.Locations[caseT] != locA {
		t.Errorf("case = %v, want %v", res.Locations[caseT], locA)
	}
	if res.Locations[item] != locA {
		t.Errorf("item = %v, want %v (cascaded)", res.Locations[item], locA)
	}
}

func TestResolveConflictsSkipsWithheld(t *testing.T) {
	res := &Result{
		Locations: map[model.Tag]model.LocationID{20: locB},
		Parents:   map[model.Tag]model.Tag{20: 10}, // parent 10 withheld
		Observed:  map[model.Tag]bool{20: true},
	}
	ResolveConflicts(res, func(model.Tag) model.Level { return model.LevelItem }, nil)
	if res.Locations[20] != locB || res.Parents[20] != 10 {
		t.Error("withheld parent must leave children untouched")
	}
}

// Property: inference is deterministic and always yields a Known or
// Unknown verdict for every node of the graph under complete mode.
func TestRandomizedInferenceTotalAndDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	readers := []*model.Reader{dockReader, beltReader, packReader}
	g := newGraph(t)
	pool := make([]model.Tag, 0, 30)
	for s := uint32(1); s <= 10; s++ {
		pool = append(pool,
			tag(t, model.LevelItem, s),
			tag(t, model.LevelCase, s),
			tag(t, model.LevelPallet, s))
	}
	inf := newInf(t, DefaultConfig())
	inf2 := newInf(t, DefaultConfig())
	for now := model.Epoch(1); now <= 120; now++ {
		for _, r := range readers {
			var set []model.Tag
			for _, g := range pool {
				if rng.Float64() < 0.2 {
					set = append(set, g)
				}
			}
			// Dedup across readers is the simulator's job; here just make
			// reader sets disjoint by construction.
			if err := g.Update(r, set[:len(set)/3], now); err != nil {
				t.Fatal(err)
			}
		}
		res := inf.Infer(g, now, Complete)
		count := 0
		g.Nodes(func(n *graph.Node) {
			count++
			loc, ok := res.Locations[n.Tag]
			if !ok {
				t.Fatalf("epoch %d: node %d has no verdict", now, n.Tag)
			}
			if !loc.Known() && loc != model.LocationUnknown {
				t.Fatalf("epoch %d: node %d verdict %v", now, n.Tag, loc)
			}
			if _, ok := res.Parents[n.Tag]; !ok {
				t.Fatalf("epoch %d: node %d has no parent verdict", now, n.Tag)
			}
		})
		if len(res.Locations) != count {
			t.Fatalf("epoch %d: %d verdicts for %d nodes", now, len(res.Locations), count)
		}
		res2 := inf2.Infer(g, now, Complete)
		for tag, loc := range res.Locations {
			if res2.Locations[tag] != loc {
				t.Fatalf("epoch %d: nondeterministic location for %d", now, tag)
			}
		}
		for tag, p := range res.Parents {
			if res2.Parents[tag] != p {
				t.Fatalf("epoch %d: nondeterministic parent for %d", now, tag)
			}
		}
		ResolveConflicts(res, levelOf, nil)
		for tag, loc := range res.Locations {
			if !loc.Known() && loc != model.LocationUnknown {
				t.Fatalf("epoch %d: post-conflict verdict %v for %d", now, loc, tag)
			}
		}
	}
}
