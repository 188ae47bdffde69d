package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"spire/internal/core"
	"spire/internal/epc"
	"spire/internal/inference"
	"spire/internal/model"
	"spire/internal/trace"
)

// perfGrower builds large graphs quickly for the efficiency experiments
// (Expts 5-6) and drives them through the shipping substrate. The full
// warehouse simulator funnels every case through a single receiving belt,
// which caps throughput far below what a 175k-object graph needs, so the
// grower plays the same reader interactions directly: each case of a
// pallet group is confirmed by a belt reader of its own (one case at a
// time, as the special-reader semantics require, and one group per reader
// in a batch) and then parked on one of many shelves, whose readers scan
// on a staggered one-minute cycle. Each epoch is one model.Batch into a
// core.Substrate, so dedup, Fig. 4, the inference schedule, conflict
// resolution and compression all run as in production. The resulting
// graph has the structure the warehouse produces — layered nodes,
// confirmed parent edges, and quadratic co-location edges among the
// objects sharing a shelf.
type perfGrower struct {
	sub   *core.Substrate
	seq   *epc.Sequencer
	rng   *rand.Rand
	batch *model.Batch
	now   model.Epoch
	// occupants[i] holds the tags parked on shelf i.
	occupants [][]model.Tag
	readRate  float64
}

const (
	perfShelves     = 256
	perfShelfPeriod = 60
	perfPallets     = 2 // pallets injected per growth epoch
	perfCases       = 8
	perfItems       = 20
	perfBelts       = perfPallets * perfCases // one belt reader per case slot
	perfPalletTags  = perfCases * (1 + perfItems)
)

// Reader IDs ascend belts first, then shelves, the order batch groups
// take. Belts sit at location 0, shelf i at location 1+i.
func perfBelt(slot int) model.ReaderID   { return model.ReaderID(1 + slot) }
func perfShelf(i int) model.ReaderID     { return model.ReaderID(1 + perfBelts + i) }
func perfShelfAt(i int) model.LocationID { return model.LocationID(1 + i) }

// newPerfGrower returns an empty grower whose inference prunes edges below
// prune. Growers with equal parameters grow identical graphs: the rng seed
// is fixed and inference never feeds back into the read schedule.
func newPerfGrower(prune float64, readRate float64) (*perfGrower, error) {
	cfg := core.Config{Inference: inference.DefaultConfig(), Locations: []model.Location{{ID: 0, Name: "belt"}}}
	cfg.Inference.PruneThreshold = prune
	for s := 0; s < perfBelts; s++ {
		cfg.Readers = append(cfg.Readers, model.Reader{ID: perfBelt(s), Location: 0, Period: 1, Confirming: true, ConfirmLevel: model.LevelCase})
	}
	for i := 0; i < perfShelves; i++ {
		cfg.Readers = append(cfg.Readers, model.Reader{ID: perfShelf(i), Location: perfShelfAt(i), Period: perfShelfPeriod})
		cfg.Locations = append(cfg.Locations, model.Location{ID: perfShelfAt(i), Name: fmt.Sprintf("shelf%d", i)})
	}
	sub, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	seq, err := epc.NewSequencer(9)
	if err != nil {
		return nil, err
	}
	return &perfGrower{
		sub:       sub,
		seq:       seq,
		rng:       rand.New(rand.NewSource(11)),
		batch:     model.NewBatch(0),
		occupants: make([][]model.Tag, perfShelves),
		readRate:  readRate,
	}, nil
}

// step builds and processes one epoch: pallets new pallet groups, each
// case read alone by its belt reader and parked on a shelf; then every
// shelf whose staggered cycle fires reads its occupants. A fresh case
// whose shelf fires in its arrival epoch is read twice, and dedup keeps
// the belt's reading. It returns the wall time of ProcessBatch.
func (p *perfGrower) step(pallets int) (time.Duration, error) {
	p.now++
	b := p.batch
	b.Reset(p.now)
	for k := 0; k < pallets; k++ {
		shelf := p.rng.Intn(perfShelves)
		for c := 0; c < perfCases; c++ {
			b.BeginReader(perfBelt(k*perfCases + c))
			start := len(b.Tags)
			for i := 0; i <= perfItems; i++ {
				lvl := model.LevelItem
				if i == 0 {
					lvl = model.LevelCase
				}
				g, err := p.seq.Next(lvl)
				if err != nil {
					return 0, err
				}
				b.Append(g)
			}
			p.occupants[shelf] = append(p.occupants[shelf], b.Tags[start:]...)
		}
	}
	for i, tags := range p.occupants {
		if (int(p.now)+i)%perfShelfPeriod != 0 || len(tags) == 0 {
			continue
		}
		b.BeginReader(perfShelf(i))
		for _, g := range tags {
			if p.readRate >= 1 || p.rng.Float64() < p.readRate {
				b.Append(g)
			}
		}
	}
	start := time.Now()
	_, err := p.sub.ProcessBatch(b)
	return time.Since(start), err
}

// grow advances epochs, injecting up to perfPallets pallets each, until
// the graph holds at least target nodes. Inference (and hence pruning,
// when enabled) follows the substrate's schedule: partial every epoch,
// complete once a shelf cycle.
func (p *perfGrower) grow(target int) error {
	for n := p.sub.Graph().Len(); n < target; n = p.sub.Graph().Len() {
		if _, err := p.step(min(perfPallets, (target-n+perfPalletTags-1)/perfPalletTags)); err != nil {
			return err
		}
	}
	// One settling minute so every shelf has been scanned at the final
	// population; the partial pass after each scan sweeps, and prunes,
	// the scanned shelf's objects at size.
	for k := 0; k < perfShelfPeriod; k++ {
		if _, err := p.step(0); err != nil {
			return err
		}
	}
	return nil
}

// measure runs steady-state epochs until epochs complete-inference epochs
// have run, and returns their mean stage laps in seconds (dedup, update,
// inference, conflict, compress) read from a spans-only flight recorder,
// followed by the mean wall time of their ProcessBatch calls.
func (p *perfGrower) measure(epochs int) ([]float64, error) {
	rec := trace.New(trace.Config{})
	p.sub.Trace(rec)
	defer p.sub.Trace(nil)
	var ns [6]int64
	for n := 0; n < epochs; {
		wall, err := p.step(0)
		if err != nil {
			return nil, err
		}
		if p.sub.Schedule().ModeAt(p.now) != inference.Complete {
			continue
		}
		spans := rec.Spans()
		s := spans[len(spans)-1]
		for i, v := range [6]int64{s.DedupNS, s.UpdateNS, s.InferNS, s.ConflictNS, s.CompressNS, wall.Nanoseconds()} {
			ns[i] += v
		}
		n++
	}
	row := make([]float64, len(ns))
	for i, v := range ns {
		row[i] = float64(v) / 1e9 / float64(epochs)
	}
	return row, nil
}

// Table3 reproduces the processing-speed experiment (Expt 5): per-epoch
// cost of each substrate stage, and of the whole epoch, for complete
// inference epochs at increasing node counts.
func Table3(o Options) (*Table, error) {
	targets := []int{25000, 55000, 75000, 95000, 135000, 155000, 175000}
	epochs := 5
	if o.Quick {
		targets = []int{5000, 15000, 30000}
		epochs = 3
	}
	cols := []string{"dedup", "update", "inference", "conflict", "compress", "total"}
	t := &Table{
		ID:        "table3",
		Title:     "Costs of the substrate's stages, seconds per complete-inference epoch (Expt 5)",
		RowHeader: "objects",
		Columns:   cols,
		Timed:     cols,
	}
	// Timed cells run one at a time, ignoring o.Workers, so no cell
	// competes for cores with another.
	for _, target := range targets {
		p, err := newPerfGrower(0.25, 0.95)
		if err != nil {
			return nil, err
		}
		if err := p.grow(target); err != nil {
			return nil, err
		}
		row, err := p.measure(epochs)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", p.sub.Graph().Len()), row...)
	}
	t.Notes = append(t.Notes,
		"paper shape: update and inference well under the 1 s epoch, inference dominating; roughly linear growth in node count",
		"total is ProcessBatch's wall time, the other columns its stage laps; edge pruning at 0.25 (the paper's suggested default for large graphs)",
		"the shelves scan on a staggered cycle, so a complete epoch finds most shelves long unread: inference marks their objects missing, and compress writes about two events per object")
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
		if err := p.grow(targets[i/nc]); err != nil {
			return err
		}
		g := p.sub.Graph()
		cells[i] = f10cell{mb: float64(g.ApproxBytes()) / (1 << 20), edges: g.EdgeCount()}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for r, target := range targets {
		row := Row{Label: fmt.Sprintf("%d", target)}
		for _, cell := range cells[r*nc : (r+1)*nc] {
			row.Values = append(row.Values, cell.mb)
		}
		// thresholds[0] is 0 and thresholds[2] is 0.5.
		row.Values = append(row.Values, float64(cells[r*nc].edges), float64(cells[r*nc+2].edges))
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper shape: without pruning memory grows fast; thresholds ≥0.5 keep growth linear in node count")
	return t, nil
}
