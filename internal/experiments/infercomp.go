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
	}

	type iccell struct {
		nodes     int
		inferSec  float64
		dirtyFrac float64
	}
	// Two cells per target: full sweep (cache off), then steady state.
	const nv = 2
	cells := make([]iccell, len(targets)*nv)
	err := runCells(len(cells), o.Workers, func(i int) error {
		icfg := inference.DefaultConfig()
		icfg.PruneThreshold = 0.25
		icfg.DisableCache = i%nv == 0
		p, err := newPerfGrowerCfg(icfg, 0.95)
		if err != nil {
			return err
		}
		if err := p.grow(targets[i/nv], 2); err != nil {
			return err
		}
		sec, frac, err := p.measureInfer(warm, epochs)
		if err != nil {
			return err
		}
		cells[i] = iccell{nodes: p.g.Len(), inferSec: sec, dirtyFrac: frac}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for r := range targets {
		serial := cells[r*nv]
		cached := cells[r*nv+1]
		speedup := 0.0
		if cached.inferSec > 0 {
			speedup = serial.inferSec / cached.inferSec
		}
		t.AddRow(fmt.Sprintf("%d", serial.nodes),
			serial.inferSec, cached.inferSec, speedup, cached.dirtyFrac)
	}
	t.Notes = append(t.Notes,
		"identical outputs with the cache on and off are pinned byte-for-byte by the core equivalence tests",
		"dirty-frac is the fraction of nodes actually swept per pass in steady state; its complement is served from the settled-slab cache")
	return t, nil
}
