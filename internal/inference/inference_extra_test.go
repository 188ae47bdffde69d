package inference

import (
	"math"
	"testing"

	"spire/internal/model"
)

// TestEdgeProbabilitiesNormalized checks Eq. 2's normalization: across a
// node's surviving incoming edges the probabilities sum to 1 and the
// chosen parent carries the maximum.
func TestEdgeProbabilitiesNormalized(t *testing.T) {
	g := newGraph(t)
	c1 := tag(t, model.LevelCase, 1)
	c2 := tag(t, model.LevelCase, 2)
	c3 := tag(t, model.LevelCase, 3)
	i1 := tag(t, model.LevelItem, 1)
	mustUpdate(t, g, beltReader, 1, c1, i1) // confirm c1
	for e := model.Epoch(2); e <= 6; e++ {
		mustUpdate(t, g, packReader, e, c1, c2, c3, i1)
	}
	inf := newInf(t, DefaultConfig())
	inf.Infer(g, 6, Complete)

	n := g.Node(i1)
	var sum, best float64
	var bestTag model.Tag
	for _, e := range n.Parents() {
		if e.InferStamp != inf.stamp {
			t.Errorf("edge %d not stamped by the pass", e.Parent.Tag)
		}
		p := e.InferProb
		if p < 0 || p > 1 {
			t.Errorf("edge %d probability %v out of [0,1]", e.Parent.Tag, p)
		}
		sum += p
		if p > best {
			best, bestTag = p, e.Parent.Tag
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("edge probabilities sum to %v, want 1", sum)
	}
	if bestTag != c1 {
		t.Errorf("max-probability edge is %d, want confirmed %d", bestTag, c1)
	}
}

// TestPartialHalonRadius widens PartialHops and checks the halo boundary
// moves accordingly.
func TestPartialHaloRadius(t *testing.T) {
	g := newGraph(t)
	p1 := tag(t, model.LevelPallet, 1)
	c1 := tag(t, model.LevelCase, 1)
	i1 := tag(t, model.LevelItem, 1)
	mustUpdate(t, g, dockReader, 1, p1, c1, i1)
	mustUpdate(t, g, dockReader, 2, i1) // only the item observed

	cfg := DefaultConfig()
	cfg.PartialHops = 2
	res := newInf(t, cfg).Infer(g, 2, Partial)
	if _, ok := res.Locations[c1]; !ok {
		t.Error("d=1 node must be covered at l=2")
	}
	if _, ok := res.Locations[p1]; !ok {
		t.Error("d=2 node must be covered at l=2")
	}
}

// TestAdaptiveBetaUsedByInference: an object whose confirmed container is
// consistently co-read should, under adaptive β, trust the confirmation
// even when a noisy co-location history favors another case.
func TestAdaptiveBetaUsedByInference(t *testing.T) {
	g := newGraph(t)
	c1 := tag(t, model.LevelCase, 1)
	c2 := tag(t, model.LevelCase, 2)
	i1 := tag(t, model.LevelItem, 1)
	mustUpdate(t, g, beltReader, 1, c1, i1) // confirm c1→i1
	// Both read together every epoch afterwards: adaptive β goes to 0
	// (no single-sided sightings), putting all weight on the
	// confirmation; c2 shares the shelf and builds an identical
	// co-location history.
	for e := model.Epoch(2); e <= 12; e++ {
		mustUpdate(t, g, packReader, e, c1, c2, i1)
	}
	cfg := DefaultConfig()
	cfg.AdaptiveBeta = true
	res := newInf(t, cfg).Infer(g, 12, Complete)
	if res.Parents[i1] != c1 {
		t.Errorf("adaptive-β parent = %d, want confirmed %d", res.Parents[i1], c1)
	}
	n := g.Node(i1)
	if got := n.AdaptiveBeta(0.4); got != 0 {
		t.Errorf("adaptive β = %v, want 0 (never a single-sided sighting)", got)
	}
}

// TestPruneThresholdOneKeepsNothingUnconfirmed: at an extreme threshold
// only the confirmation term can survive.
func TestPruneThresholdExtreme(t *testing.T) {
	g := newGraph(t)
	c1 := tag(t, model.LevelCase, 1)
	c2 := tag(t, model.LevelCase, 2)
	i1 := tag(t, model.LevelItem, 1)
	mustUpdate(t, g, beltReader, 1, c1, i1)
	for e := model.Epoch(2); e <= 40; e++ {
		mustUpdate(t, g, packReader, e, c1, c2, i1)
	}
	cfg := DefaultConfig()
	cfg.PruneThreshold = 0.5 // above β·w = 0.4 for any history
	res := newInf(t, cfg).Infer(g, 40, Complete)
	if g.Node(i1).NumParents() != 1 {
		t.Errorf("only the confirmed edge may survive 0.5; %d remain", g.Node(i1).NumParents())
	}
	if res.Parents[i1] != c1 {
		t.Errorf("parent = %d, want %d", res.Parents[i1], c1)
	}
}

// TestInfConfigAccessor covers the Config getter.
func TestInfConfigAccessor(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Beta = 0.7
	inf := newInf(t, cfg)
	if inf.Config().Beta != 0.7 {
		t.Errorf("Config().Beta = %v", inf.Config().Beta)
	}
}
