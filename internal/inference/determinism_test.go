package inference

import (
	"math"
	"slices"
	"testing"

	"spire/internal/graph"
	"spire/internal/model"
)

// TestInferBitsIndependentOfInsertionOrder pins that every float the pass
// produces is a function of the graph alone. The Eq. 2 normalizer and the
// Eq. 3 sums add in edge-span order, which is tag order whatever order the
// edges were inserted in — so two graphs equal as graphs but built by
// opposite insertion orders, each inferred 20 times, must agree on every
// edge probability to the last bit and on every verdict.
func TestInferBitsIndependentOfInsertionOrder(t *testing.T) {
	var tags []model.Tag
	for s := uint32(1); s <= 2; s++ {
		tags = append(tags, tag(t, model.LevelPallet, s))
	}
	for s := uint32(1); s <= 7; s++ {
		tags = append(tags, tag(t, model.LevelCase, s))
	}
	for s := uint32(1); s <= 9; s++ {
		tags = append(tags, tag(t, model.LevelItem, s))
	}
	slices.Sort(tags)

	const last = model.Epoch(12)
	build := func(descending bool) *graph.Graph {
		g := graph.New()
		for e := model.Epoch(1); e <= last; e++ {
			// Each epoch misses a different third of the tags, so every
			// edge carries its own history; the last epoch reads only the
			// pallets' half of the tag space, leaving the rest to Eqs. 3-4.
			var read []model.Tag
			for i, tg := range tags {
				if (i*5+int(e))%3 == 0 || (e == last && i%2 == 1) {
					continue
				}
				read = append(read, tg)
			}
			if descending {
				slices.Reverse(read)
			}
			mustUpdate(t, g, packReader, e, read...)
		}
		return g
	}

	// fingerprint flattens one pass: per node in tag order, its verdicts
	// and the bits of every parent edge's probability.
	fingerprint := func(g *graph.Graph, inf *Inferencer) []uint64 {
		res := inf.Infer(g, last, Complete)
		var fp []uint64
		for _, tg := range tags {
			n := g.Node(tg)
			fp = append(fp, uint64(tg), uint64(verdictOf(res, tg).Location), uint64(verdictOf(res, tg).Parent))
			for _, e := range n.Parents() {
				if e.InferStamp != inf.stamp {
					t.Fatalf("edge %d→%d not stamped by the pass", e.Parent.Tag, tg)
				}
				fp = append(fp, math.Float64bits(e.InferProb))
			}
		}
		return fp
	}

	var want []uint64
	multiParent := 0
	for _, descending := range []bool{false, true} {
		g := build(descending)
		inf := newInf(t, DefaultConfig())
		for run := 0; run < 20; run++ {
			got := fingerprint(g, inf)
			if want == nil {
				want = got
				for _, tg := range tags {
					if g.Node(tg).NumParents() > 2 {
						multiParent++
					}
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("descending=%v run %d: probabilities or verdicts differ from the first pass", descending, run)
			}
		}
	}
	if multiParent < 5 {
		t.Fatalf("setup too thin: only %d nodes sum more than two parent confidences", multiParent)
	}
}
