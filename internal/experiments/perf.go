package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"spire/internal/epc"
	"spire/internal/graph"
	"spire/internal/inference"
	"spire/internal/model"
)

// perfGrower builds large graphs quickly for the efficiency experiments
// (Expts 5-6). The full warehouse simulator funnels every case through a
// single receiving belt, which caps throughput far below what a 175k-object
// graph needs, so the grower plays the same reader interactions directly:
// each pallet group is confirmed by a belt reader (one case at a time, as
// the special-reader semantics require) and then parked on one of many
// shelves, whose readers scan on a staggered one-minute cycle. The
// resulting graph has the same structure the warehouse produces — layered
// nodes, confirmed parent edges, and quadratic co-location edges among the
// objects sharing a shelf.
type perfGrower struct {
	g       *graph.Graph
	inf     *inference.Inferencer
	seq     *epc.Sequencer
	rng     *rand.Rand
	now     model.Epoch
	belt    model.Reader
	shelves []model.Reader
	// occupants[i] holds the tags parked on shelf i.
	occupants [][]model.Tag
	readRate  float64
}

const (
	perfShelves     = 256
	perfShelfPeriod = 60
	perfCases       = 8
	perfItems       = 20
)

// newPerfGrower returns an empty grower whose inference prunes edges below
// prune. Growers with equal parameters grow identical graphs: the rng seed
// is fixed and inference never feeds back into the read schedule.
func newPerfGrower(prune float64, readRate float64) (*perfGrower, error) {
	icfg := inference.DefaultConfig()
	icfg.PruneThreshold = prune
	inf, err := inference.New(icfg)
	if err != nil {
		return nil, err
	}
	seq, err := epc.NewSequencer(9)
	if err != nil {
		return nil, err
	}
	p := &perfGrower{
		g:         graph.New(),
		inf:       inf,
		seq:       seq,
		rng:       rand.New(rand.NewSource(11)),
		belt:      model.Reader{ID: 1, Location: 0, Period: 1, Confirming: true, ConfirmLevel: model.LevelCase},
		occupants: make([][]model.Tag, perfShelves),
		readRate:  readRate,
	}
	for i := 0; i < perfShelves; i++ {
		p.shelves = append(p.shelves, model.Reader{
			ID:       model.ReaderID(10 + i),
			Location: model.LocationID(1 + i),
			Period:   perfShelfPeriod,
		})
	}
	return p, nil
}

// injectPallet creates one pallet group, confirms each case on the belt,
// and parks the group on a shelf.
func (p *perfGrower) injectPallet() error {
	shelf := p.rng.Intn(perfShelves)
	for c := 0; c < perfCases; c++ {
		ctag, err := p.seq.Next(model.LevelCase)
		if err != nil {
			return err
		}
		group := []model.Tag{ctag}
		for i := 0; i < perfItems; i++ {
			itag, err := p.seq.Next(model.LevelItem)
			if err != nil {
				return err
			}
			group = append(group, itag)
		}
		// Belt confirmation scan: the case with its items, alone.
		if err := p.g.Update(&p.belt, group, p.now); err != nil {
			return err
		}
		p.occupants[shelf] = append(p.occupants[shelf], group...)
	}
	return nil
}

// shelfScan runs the shelf readers whose staggered cycle fires this epoch.
func (p *perfGrower) shelfScan() error {
	for i := range p.shelves {
		if (int(p.now)+i)%perfShelfPeriod != 0 {
			continue
		}
		tags := p.occupants[i]
		if len(tags) == 0 {
			continue
		}
		read := tags
		if p.readRate < 1 {
			read = read[:0:0]
			for _, g := range tags {
				if p.rng.Float64() < p.readRate {
					read = append(read, g)
				}
			}
		}
		if err := p.g.Update(&p.shelves[i], read, p.now); err != nil {
			return err
		}
	}
	return nil
}

// grow advances epochs, injecting pallets, until the graph holds at least
// target nodes; inference (and hence pruning, when enabled) runs on the
// complete-inference cycle.
func (p *perfGrower) grow(target int, palletsPerEpoch int) error {
	for p.g.Len() < target {
		p.now++
		for k := 0; k < palletsPerEpoch && p.g.Len() < target; k++ {
			if err := p.injectPallet(); err != nil {
				return err
			}
		}
		if err := p.shelfScan(); err != nil {
			return err
		}
		if p.now%perfShelfPeriod == 0 {
			p.inf.Infer(p.g, p.now, inference.Complete)
		}
	}
	// One settling minute so every shelf has been scanned at the final
	// population, then one complete inference to apply pruning at size.
	for k := 0; k < perfShelfPeriod; k++ {
		p.now++
		if err := p.shelfScan(); err != nil {
			return err
		}
	}
	p.inf.Infer(p.g, p.now, inference.Complete)
	return nil
}

// measure times steady-state epochs at the reached size: the full graph
// update for the epoch's active readers plus one complete inference pass.
func (p *perfGrower) measure(epochs int) (updateSec, inferSec float64, err error) {
	var upd, infd time.Duration
	for k := 0; k < epochs; k++ {
		p.now++
		start := time.Now()
		if err := p.shelfScan(); err != nil {
			return 0, 0, err
		}
		upd += time.Since(start)
		start = time.Now()
		p.inf.Infer(p.g, p.now, inference.Complete)
		infd += time.Since(start)
	}
	n := float64(epochs)
	return upd.Seconds() / n, infd.Seconds() / n, nil
}

// Table3 reproduces the processing-speed experiment (Expt 5): per-epoch
// graph update and complete-inference cost at increasing node counts.
func Table3(o Options) (*Table, error) {
	targets := []int{25000, 55000, 75000, 95000, 135000, 155000, 175000}
	epochs := 5
	if o.Quick {
		targets = []int{5000, 15000, 30000}
		epochs = 3
	}
	t := &Table{
		ID:        "table3",
		Title:     "Costs of update and inference operations, seconds per epoch (Expt 5)",
		RowHeader: "objects",
		Columns:   []string{"update", "inference", "total"},
		Timed:     []string{"update", "inference", "total"},
	}
	// Timed cells run one at a time, ignoring o.Workers, so no cell
	// competes for cores with another.
	for _, target := range targets {
		p, err := newPerfGrower(0.25, 0.95)
		if err != nil {
			return nil, err
		}
		if err := p.grow(target, 2); err != nil {
			return nil, err
		}
		upd, infd, err := p.measure(epochs)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", p.g.Len()), upd, infd, upd+infd)
	}
	t.Notes = append(t.Notes,
		"paper shape: both costs well under the 1 s epoch, inference dominating; roughly linear growth in node count",
		"measured with edge pruning at 0.25 (the paper's suggested default for large graphs)")
	return t, nil
}

// Fig10 reproduces the memory experiment (Expt 6): resident graph size at
// increasing node counts under different edge-pruning thresholds.
func Fig10(o Options) (*Table, error) {
	targets := []int{25000, 75000, 135000, 175000}
	if o.Quick {
		targets = []int{5000, 15000, 30000}
	}
	thresholds := []float64{0, 0.25, 0.5, 0.75}
	t := &Table{
		ID:        "fig10",
		Title:     "Graph memory (MB) vs node count and prune threshold (Expt 6)",
		RowHeader: "objects",
	}
	for _, th := range thresholds {
		t.Columns = append(t.Columns, fmt.Sprintf("prune=%.2f", th))
	}
	t.Columns = append(t.Columns, "edges@0", "edges@0.50")
	type f10cell struct {
		mb    float64
		edges int
	}
	nc := len(thresholds)
	cells := make([]f10cell, len(targets)*nc)
	err := runCells(len(cells), o.Workers, func(i int) error {
		p, err := newPerfGrower(thresholds[i%nc], 0.95)
		if err != nil {
			return err
		}
		if err := p.grow(targets[i/nc], 2); err != nil {
			return err
		}
		cells[i] = f10cell{mb: float64(p.g.ApproxBytes()) / (1 << 20), edges: p.g.EdgeCount()}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for r, target := range targets {
		row := Row{Label: fmt.Sprintf("%d", target)}
		var edges0, edgesHalf float64
		for c, th := range thresholds {
			cell := cells[r*nc+c]
			row.Values = append(row.Values, cell.mb)
			if th == 0 {
				edges0 = float64(cell.edges)
			}
			if th == 0.5 {
				edgesHalf = float64(cell.edges)
			}
		}
		row.Values = append(row.Values, edges0, edgesHalf)
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper shape: without pruning memory grows fast; thresholds ≥0.5 keep growth linear in node count")
	return t, nil
}
