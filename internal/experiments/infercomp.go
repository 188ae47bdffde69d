package experiments

import (
	"fmt"

	"spire/internal/inference"
)

// InferComp measures the component-at-a-time inference pass of Table III's
// workload at two operating points: the full re-sweep (cache off — the
// pre-sharding cost model) and the incremental steady state where clean
// components are served from the settled-slab cache. Both run the
// same deterministic grower (fixed rng seed, inference never feeds back
// into the read schedule), so the graphs — and the emitted verdicts,
// pinned elsewhere byte-for-byte — are identical across columns; only the
// wall clock and the swept-node accounting differ.
func InferComp(o Options) (*Table, error) {
	targets := []int{25000, 95000, 175000}
	warm, epochs := 8, 5
	if o.Quick {
		targets = []int{5000, 15000, 30000}
		warm, epochs = 8, 3
	}
	t := &Table{
		ID:        "infercomp",
		Title:     "Component-at-a-time inference, seconds per complete pass",
		RowHeader: "objects",
		Columns:   []string{"serial", "cached", "speedup", "dirty-frac"},
		Timed:     []string{"serial", "cached", "speedup"},
	}

	// measure grows one graph and times its steady-state passes. Timed
	// cells run one at a time, ignoring o.Workers, so no cell competes
	// for cores with another.
	measure := func(target int, disableCache bool) (nodes int, sec, frac float64, err error) {
		icfg := inference.DefaultConfig()
		icfg.PruneThreshold = 0.25
		icfg.DisableCache = disableCache
		p, err := newPerfGrowerCfg(icfg, 0.95)
		if err != nil {
			return 0, 0, 0, err
		}
		if err := p.grow(target, 2); err != nil {
			return 0, 0, 0, err
		}
		sec, frac, err = p.measureInfer(warm, epochs)
		return p.g.Len(), sec, frac, err
	}
	for _, target := range targets {
		nodes, serial, _, err := measure(target, true)
		if err != nil {
			return nil, err
		}
		_, cached, dirtyFrac, err := measure(target, false)
		if err != nil {
			return nil, err
		}
		speedup := 0.0
		if cached > 0 {
			speedup = serial / cached
		}
		t.AddRow(fmt.Sprintf("%d", nodes), serial, cached, speedup, dirtyFrac)
	}
	t.Notes = append(t.Notes,
		"identical outputs with the cache on and off are pinned byte-for-byte by the core equivalence tests",
		"dirty-frac is the fraction of nodes actually swept per pass in steady state; its complement is served from the settled-slab cache")
	return t, nil
}
