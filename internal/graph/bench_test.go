package graph

import (
	"fmt"
	"testing"

	"spire/internal/epc"
	"spire/internal/model"
)

// buildShelf populates one shelf with nCases cases of nItems items, all
// colored by the shelf reader in epoch 1.
func buildShelf(b *testing.B, nCases, nItems int) (*Graph, *model.Reader, []model.Tag) {
	b.Helper()
	g, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	reader := &model.Reader{ID: 1, Location: 0, Period: 1}
	var tags []model.Tag
	seq, err := epc.NewSequencer(3)
	if err != nil {
		b.Fatal(err)
	}
	for c := 0; c < nCases; c++ {
		ct, err := seq.Next(model.LevelCase)
		if err != nil {
			b.Fatal(err)
		}
		tags = append(tags, ct)
		for i := 0; i < nItems; i++ {
			it, err := seq.Next(model.LevelItem)
			if err != nil {
				b.Fatal(err)
			}
			tags = append(tags, it)
		}
	}
	if err := g.Update(reader, tags, 1); err != nil {
		b.Fatal(err)
	}
	return g, reader, tags
}

// BenchmarkUpdateSteadyState measures the per-epoch cost of re-reading a
// populated shelf (no new edges, statistics only) — the dominant update
// pattern in steady state.
func BenchmarkUpdateSteadyState(b *testing.B) {
	for _, size := range []struct{ cases, items int }{{5, 20}, {20, 20}, {50, 20}} {
		name := fmt.Sprintf("cases=%d", size.cases)
		b.Run(name, func(b *testing.B) {
			g, reader, tags := buildShelf(b, size.cases, size.items)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := g.Update(reader, tags, model.Epoch(i+2)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(tags)), "readings/epoch")
		})
	}
}

// BenchmarkUpdateFirstContact measures the quadratic edge-creation epoch:
// a fresh group colored together for the first time.
func BenchmarkUpdateFirstContact(b *testing.B) {
	reader := &model.Reader{ID: 1, Location: 0, Period: 1}
	seq, err := epc.NewSequencer(3)
	if err != nil {
		b.Fatal(err)
	}
	var tags []model.Tag
	for c := 0; c < 20; c++ {
		ct, _ := seq.Next(model.LevelCase)
		tags = append(tags, ct)
		for i := 0; i < 20; i++ {
			it, _ := seq.Next(model.LevelItem)
			tags = append(tags, it)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := New(Config{})
		if err != nil {
			b.Fatal(err)
		}
		if err := g.Update(reader, tags, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngestUpdate measures the batched steady-state update: 64
// shelves, each an independent one-case component, re-read in one epoch
// batch.
func BenchmarkIngestUpdate(b *testing.B) {
	const shelves, items = 64, 20
	g, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	seq, err := epc.NewSequencer(3)
	if err != nil {
		b.Fatal(err)
	}
	readers := make([]*model.Reader, 0, shelves)
	batch := model.NewBatch(1)
	for s := 0; s < shelves; s++ {
		r := &model.Reader{ID: model.ReaderID(10 + s), Location: model.LocationID(1 + s), Period: 60}
		readers = append(readers, r)
		ct, err := seq.Next(model.LevelCase)
		if err != nil {
			b.Fatal(err)
		}
		group := []model.Tag{ct}
		for i := 0; i < items; i++ {
			it, err := seq.Next(model.LevelItem)
			if err != nil {
				b.Fatal(err)
			}
			group = append(group, it)
		}
		if err := g.Update(r, group, 1); err != nil {
			b.Fatal(err)
		}
		batch.BeginReader(r.ID)
		for _, t := range group {
			batch.Append(t)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.Time = model.Epoch(i + 2)
		if err := g.UpdateBatch(batch, readers); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(batch.Total()), "readings/op")
}

// BenchmarkHistoryWeight measures the Eq. 1 hot path.
func BenchmarkHistoryWeight(b *testing.B) {
	h, err := NewHistory(32)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		h.SetRecent(i%3 != 0)
		h.Shift()
	}
	w := ZipfWeights(32, 0)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += h.Weight(w)
	}
	_ = sink
}
