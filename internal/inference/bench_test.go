package inference

import (
	"fmt"
	"testing"

	"spire/internal/epc"
	"spire/internal/graph"
	"spire/internal/model"
)

// buildWarehouseGraph colors nShelves shelves, each holding cases of
// items, and leaves a fraction of objects unobserved in the final epoch
// so the iterative sweep has real work at d ≥ 1.
func buildWarehouseGraph(b testing.TB, nShelves, casesPerShelf, itemsPerCase int) (*graph.Graph, model.Epoch) {
	b.Helper()
	g, err := graph.New(graph.Config{})
	if err != nil {
		b.Fatal(err)
	}
	seq, err := epc.NewSequencer(3)
	if err != nil {
		b.Fatal(err)
	}
	now := model.Epoch(1)
	readers := make([]*model.Reader, nShelves)
	groups := make([][]model.Tag, nShelves)
	for s := 0; s < nShelves; s++ {
		readers[s] = &model.Reader{ID: model.ReaderID(s + 1), Location: model.LocationID(s), Period: 1}
		for c := 0; c < casesPerShelf; c++ {
			ct, _ := seq.Next(model.LevelCase)
			groups[s] = append(groups[s], ct)
			for i := 0; i < itemsPerCase; i++ {
				it, _ := seq.Next(model.LevelItem)
				groups[s] = append(groups[s], it)
			}
		}
	}
	// A few epochs of full reads build history, then one epoch with ~20%
	// of objects missed.
	for e := 0; e < 4; e++ {
		for s := range groups {
			if err := g.Update(readers[s], groups[s], now); err != nil {
				b.Fatal(err)
			}
		}
		now++
	}
	for s := range groups {
		var read []model.Tag
		for i, t := range groups[s] {
			if i%5 != 0 {
				read = append(read, t)
			}
		}
		if err := g.Update(readers[s], read, now); err != nil {
			b.Fatal(err)
		}
	}
	return g, now
}

// BenchmarkCompleteInference measures a full iterative pass.
func BenchmarkCompleteInference(b *testing.B) {
	for _, shelves := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("shelves=%d", shelves), func(b *testing.B) {
			g, now := buildWarehouseGraph(b, shelves, 4, 20)
			inf, err := New(DefaultConfig(), g.Config().HistorySize)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := inf.Infer(g, now, Complete)
				if len(res.Locations) != g.Len() {
					b.Fatalf("incomplete verdicts: %d of %d", len(res.Locations), g.Len())
				}
			}
			b.ReportMetric(float64(g.Len()), "nodes")
		})
	}
}

// The component variants cover the two operating points of the pass: the
// full re-sweep with the cache off (the Table III baseline shape), and
// cached steady state where the stream has gone quiet and passes serve
// settled slabs.
func BenchmarkInferComponentsSerial(b *testing.B) {
	benchInferComponents(b, true, false)
}

func BenchmarkInferComponentsCachedSteadyState(b *testing.B) {
	benchInferComponents(b, false, true)
}

func benchInferComponents(b *testing.B, disableCache, steady bool) {
	cfg := DefaultConfig()
	cfg.DisableCache = disableCache
	g, now := buildWarehouseGraph(b, 64, 4, 20)
	inf, err := New(cfg, g.Config().HistorySize)
	if err != nil {
		b.Fatal(err)
	}
	if steady {
		for i := 0; i < 4; i++ { // let every component settle into the cache
			now++
			inf.Infer(g, now, Complete)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if steady {
			now++
		}
		res := inf.Infer(g, now, Complete)
		if len(res.Locations) != g.Len() {
			b.Fatalf("incomplete verdicts: %d of %d", len(res.Locations), g.Len())
		}
	}
	b.StopTimer()
	st := inf.LastStats()
	b.ReportMetric(float64(st.NodesInferred), "nodes-inferred")
	b.ReportMetric(float64(st.NodesCached), "nodes-cached")
}

// BenchmarkPartialInference measures the halo-limited pass the substrate
// runs between complete-inference epochs.
func BenchmarkPartialInference(b *testing.B) {
	g, now := buildWarehouseGraph(b, 16, 4, 20)
	inf, err := New(DefaultConfig(), g.Config().HistorySize)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inf.Infer(g, now, Partial)
	}
}

// BenchmarkResolveConflicts measures the post-processing pass.
func BenchmarkResolveConflicts(b *testing.B) {
	g, now := buildWarehouseGraph(b, 16, 4, 20)
	inf, err := New(DefaultConfig(), g.Config().HistorySize)
	if err != nil {
		b.Fatal(err)
	}
	levelOf := func(t model.Tag) model.Level {
		l, _ := epc.LevelOf(t)
		return l
	}
	base := inf.Infer(g, now, Complete)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Conflict resolution mutates; copy the maps per iteration.
		res := &Result{
			Now:       base.Now,
			Locations: make(map[model.Tag]model.LocationID, len(base.Locations)),
			Parents:   make(map[model.Tag]model.Tag, len(base.Parents)),
			Observed:  base.Observed,
		}
		for k, v := range base.Locations {
			res.Locations[k] = v
		}
		for k, v := range base.Parents {
			res.Parents[k] = v
		}
		ResolveConflicts(res, levelOf, nil)
	}
}
