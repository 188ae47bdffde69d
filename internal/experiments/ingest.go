package experiments

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"time"

	"spire/internal/dedup"
	"spire/internal/epc"
	"spire/internal/graph"
	"spire/internal/model"
	"spire/internal/stream"
)

// The ingest benchmark measures the front half of the pipeline — the
// work ProcessBatch does before inference takes over: deduplication and
// the graph update. The perfGrower's 256 shelves would drown a 10^6-tag
// population in quadratic co-location edges, so this grower scales the
// shelf count with the population instead: every shelf holds exactly one
// belt-confirmed case group, which keeps each shelf a small independent
// component — a realistic picture of a large warehouse (many locations,
// bounded co-location).
const (
	ingestShelfPeriod   = 60              // staggered scan cycle, as elsewhere
	ingestItems         = 20              // items per case
	ingestGroupSize     = ingestItems + 1 // one case group per shelf
	ingestReadRate      = 0.95
	ingestBuildPerEpoch = 64 // belt confirmations per build epoch
)

type ingestGrower struct {
	g       *graph.Graph
	ded     *dedup.Deduplicator
	seq     *epc.Sequencer
	rng     *rand.Rand
	now     model.Epoch
	belt    model.Reader
	shelves []model.Reader
	byID    map[model.ReaderID]*model.Reader
	// occupants[i] holds the case group parked on shelf i.
	occupants [][]model.Tag
	seg       []model.Batch   // reused segment buffer
	rs        []*model.Reader // reused group→reader scratch
}

func newIngestGrower(targetTags int) (*ingestGrower, error) {
	g, err := graph.New(graph.Config{})
	if err != nil {
		return nil, err
	}
	seq, err := epc.NewSequencer(9)
	if err != nil {
		return nil, err
	}
	shelves := (targetTags + ingestGroupSize - 1) / ingestGroupSize
	p := &ingestGrower{
		g:         g,
		ded:       dedup.New(),
		seq:       seq,
		rng:       rand.New(rand.NewSource(17)),
		belt:      model.Reader{ID: 1, Location: 0, Period: 1, Confirming: true, ConfirmLevel: model.LevelCase},
		byID:      make(map[model.ReaderID]*model.Reader, shelves+1),
		occupants: make([][]model.Tag, shelves),
	}
	for i := 0; i < shelves; i++ {
		p.shelves = append(p.shelves, model.Reader{
			ID:       model.ReaderID(10 + i),
			Location: model.LocationID(1 + i),
			Period:   ingestShelfPeriod,
		})
	}
	p.byID[p.belt.ID] = &p.belt
	for i := range p.shelves {
		p.byID[p.shelves[i].ID] = &p.shelves[i]
	}
	return p, nil
}

// Population returns the number of tags parked on shelves.
func (p *ingestGrower) Population() int { return len(p.shelves) * ingestGroupSize }

// populate confirms one case group per shelf on the belt, then settles
// for a full scan period, so first-contact edge creation and dedup's
// first sight of every tag stay out of the timed steady state.
func (p *ingestGrower) populate() error {
	for i := range p.shelves {
		if i%ingestBuildPerEpoch == 0 {
			p.now++
		}
		group := make([]model.Tag, 0, ingestGroupSize)
		ctag, err := p.seq.Next(model.LevelCase)
		if err != nil {
			return err
		}
		group = append(group, ctag)
		for k := 0; k < ingestItems; k++ {
			itag, err := p.seq.Next(model.LevelItem)
			if err != nil {
				return err
			}
			group = append(group, itag)
		}
		if err := p.g.Update(&p.belt, group, p.now); err != nil {
			return err
		}
		p.occupants[i] = group
	}
	p.genSegment()
	for i := range p.seg {
		if err := p.frontHalf(&p.seg[i]); err != nil {
			return err
		}
	}
	return nil
}

// genSegment fills the reused segment buffer with one full scan period
// of steady-state epochs — every shelf fires exactly once — and returns
// the raw reading count. Generation is untimed; only the measured path
// consumes the segment.
func (p *ingestGrower) genSegment() int64 {
	if cap(p.seg) < ingestShelfPeriod {
		p.seg = make([]model.Batch, ingestShelfPeriod)
	}
	p.seg = p.seg[:ingestShelfPeriod]
	var readings int64
	for k := range p.seg {
		p.now++
		b := &p.seg[k]
		b.Reset(p.now)
		for i := range p.shelves {
			if (int(p.now)+i)%ingestShelfPeriod != 0 {
				continue
			}
			b.BeginReader(p.shelves[i].ID)
			for _, g := range p.occupants[i] {
				if p.rng.Float64() < ingestReadRate {
					b.Append(g)
				}
			}
		}
		readings += int64(b.Total())
	}
	return readings
}

// frontHalf is ProcessBatch's front half: dedup over the tag column, then
// the per-group graph update. The group→reader resolution is timed,
// exactly as in core.
func (p *ingestGrower) frontHalf(b *model.Batch) error {
	p.ded.CleanBatch(b)
	rs := p.rs[:0]
	for i := range b.Groups {
		rs = append(rs, p.byID[b.Groups[i].Reader])
	}
	p.rs = rs
	return p.g.UpdateBatch(b, rs)
}

// measure runs the front half over freshly generated segments until at
// least minReadings raw readings have been pushed through it, and
// returns readings per second of timed work.
func (p *ingestGrower) measure(minReadings int64) (float64, error) {
	var readings int64
	var elapsed time.Duration
	for readings < minReadings {
		readings += p.genSegment()
		start := time.Now()
		for i := range p.seg {
			if err := p.frontHalf(&p.seg[i]); err != nil {
				return 0, err
			}
		}
		elapsed += time.Since(start)
	}
	return float64(readings) / elapsed.Seconds(), nil
}

// measureDecode times the columnar wire decode: one steady-state segment
// serialized once, then BatchReader passes over it until minReadings.
func (p *ingestGrower) measureDecode(minReadings int64) (float64, error) {
	n := p.genSegment()
	var buf bytes.Buffer
	w := stream.NewWriter(&buf)
	for i := range p.seg {
		if err := w.WriteBatch(&p.seg[i]); err != nil {
			return 0, err
		}
	}
	if err := w.Flush(); err != nil {
		return 0, err
	}
	raw := buf.Bytes()
	var b model.Batch
	var readings int64
	var elapsed time.Duration
	for readings < minReadings {
		br := stream.NewBatchReader(bytes.NewReader(raw))
		start := time.Now()
		for {
			err := br.ReadBatch(&b)
			if err == io.EOF {
				break
			}
			if err != nil {
				return 0, err
			}
		}
		elapsed += time.Since(start)
		readings += n
	}
	return float64(readings) / elapsed.Seconds(), nil
}

// measureDedup times CleanBatch alone over fresh segments.
func (p *ingestGrower) measureDedup(minReadings int64) (float64, error) {
	var readings int64
	var elapsed time.Duration
	for readings < minReadings {
		readings += p.genSegment()
		for i := range p.seg {
			start := time.Now()
			p.ded.CleanBatch(&p.seg[i])
			elapsed += time.Since(start)
		}
	}
	return float64(readings) / elapsed.Seconds(), nil
}

// measureUpdate times UpdateBatch alone over fresh segments; the
// group→reader resolution stays outside the timed region so the row is
// purely the graph stage.
func (p *ingestGrower) measureUpdate(minReadings int64) (float64, error) {
	var readings int64
	var elapsed time.Duration
	for readings < minReadings {
		readings += p.genSegment()
		for i := range p.seg {
			b := &p.seg[i]
			rs := p.rs[:0]
			for j := range b.Groups {
				rs = append(rs, p.byID[b.Groups[j].Reader])
			}
			p.rs = rs
			start := time.Now()
			if err := p.g.UpdateBatch(b, rs); err != nil {
				return 0, err
			}
			elapsed += time.Since(start)
		}
	}
	return float64(readings) / elapsed.Seconds(), nil
}

// BenchIngest measures ingest front-half throughput — CleanBatch plus
// UpdateBatch, the work ProcessBatch does upstream of inference — at tag
// populations up to 10^6. A second table reports per-stage throughput
// (wire decode, dedup, update) at the largest population; those rows are
// the BenchmarkIngest{Decode,Dedup,Update} baseline entries spirebenchdiff
// gates.
func BenchIngest(o Options) ([]*Table, error) {
	targets := []int{10_000, 100_000, 1_000_000}
	minReadings := int64(1_000_000)
	if o.Quick {
		targets = []int{10_000, 50_000}
		minReadings = 200_000
	}
	main := &Table{
		ID:        "bench-ingest",
		Title:     "Ingest front-half throughput vs tag population",
		RowHeader: "tags",
		Columns:   []string{"readings/s", "s/Mread"},
	}
	stages := &Table{
		ID:        "ingest-stages",
		Title:     "Ingest per-stage throughput at the largest population",
		RowHeader: "stage",
		Columns:   []string{"Mread/s", "s/Mread"},
	}
	for ti, target := range targets {
		p, err := newIngestGrower(target)
		if err != nil {
			return nil, err
		}
		if err := p.populate(); err != nil {
			return nil, err
		}
		rps, err := p.measure(minReadings)
		if err != nil {
			return nil, err
		}
		main.AddRow(fmt.Sprintf("%d", p.Population()), rps, 1e6/rps)

		if ti == len(targets)-1 {
			type stage struct {
				label string
				fn    func(int64) (float64, error)
			}
			for _, st := range []stage{
				{"BenchmarkIngestDecode", p.measureDecode},
				{"BenchmarkIngestDedup", p.measureDedup},
				{"BenchmarkIngestUpdate", p.measureUpdate},
			} {
				rps, err := st.fn(minReadings)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", st.label, err)
				}
				stages.AddRow(st.label, rps/1e6, 1e6/rps)
			}
		}
	}
	main.Notes = append(main.Notes,
		"the one ingest path: dedup.CleanBatch then graph.UpdateBatch on the caller's goroutine; absolute readings/s are host-dependent",
		"one belt-confirmed case group per shelf: components stay small and independent",
		"front half only (dedup + graph update); inference/compression are measured by table3 and infercomp")
	return []*Table{main, stages}, nil
}
