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
	g := graph.New()
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
			if err := applyGroup(g, readers[s], groups[s], now); err != nil {
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
		if err := applyGroup(g, readers[s], read, now); err != nil {
			b.Fatal(err)
		}
	}
	return g, now
}

// buildShelfGraph stocks nShelves shelves with one pallet each, the way
// shelf_scale's resident graph grows: each case arrives with its items in
// an epoch of its own, so an item's one candidate container is its case
// and a case's is the pallet, and each shelf is one component. After a
// few epochs of full reads, the final epoch misses every second object,
// so each shelf's halo holds about two hundred nodes.
func buildShelfGraph(b testing.TB, nShelves, cases, items int) (*graph.Graph, model.Epoch) {
	b.Helper()
	g := graph.New()
	seq, err := epc.NewSequencer(3)
	if err != nil {
		b.Fatal(err)
	}
	update := func(r *model.Reader, tags []model.Tag, now model.Epoch) {
		if err := applyGroup(g, r, tags, now); err != nil {
			b.Fatal(err)
		}
	}
	readers, stock := make([]*model.Reader, nShelves), make([][]model.Tag, nShelves)
	for s := range readers {
		readers[s] = &model.Reader{ID: model.ReaderID(s + 1), Location: model.LocationID(s), Period: 1}
		p, _ := seq.Next(model.LevelPallet)
		stock[s] = []model.Tag{p}
	}
	now := model.Epoch(1)
	for c := 0; c < cases; c++ {
		for s, r := range readers {
			ct, _ := seq.Next(model.LevelCase)
			arriving := []model.Tag{stock[s][0], ct}
			for i := 0; i < items; i++ {
				it, _ := seq.Next(model.LevelItem)
				arriving = append(arriving, it)
			}
			update(r, arriving, now)
			stock[s] = append(stock[s], arriving[1:]...)
		}
		now++
	}
	for e := 0; e < 4; e++ {
		for s, r := range readers {
			update(r, stock[s], now)
		}
		now++
	}
	for s, r := range readers {
		var read []model.Tag
		for i, t := range stock[s] {
			if i%2 != 0 {
				read = append(read, t)
			}
		}
		update(r, read, now)
	}
	return g, now
}

// BenchmarkCompleteInference measures a full iterative pass.
func BenchmarkCompleteInference(b *testing.B) {
	for _, shelves := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("shelves=%d", shelves), func(b *testing.B) {
			g, now := buildWarehouseGraph(b, shelves, 4, 20)
			inf, err := New(DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := inf.Infer(g, now, Complete)
				if len(res.Rows()) != g.Len() {
					b.Fatalf("incomplete verdicts: %d of %d", len(res.Rows()), g.Len())
				}
			}
			b.ReportMetric(float64(g.Len()), "nodes")
		})
	}
}

// BenchmarkInferComponentsSerial measures the component-at-a-time
// complete sweep on the Table III shape, with allocation counts.
func BenchmarkInferComponentsSerial(b *testing.B) {
	g, now := buildWarehouseGraph(b, 64, 4, 20)
	inf, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := inf.Infer(g, now, Complete)
		if len(res.Rows()) != g.Len() {
			b.Fatalf("incomplete verdicts: %d of %d", len(res.Rows()), g.Len())
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(inf.LastStats().NodesInferred), "nodes-inferred")
}

// BenchmarkPartialInference measures the halo-limited pass the substrate
// runs between complete-inference epochs: on buildWarehouseGraph's 16
// shelves, whose halos are small, and on two buildShelfGraph shelves of 40
// cases of 20 items, whose halos hold about two hundred nodes each.
func BenchmarkPartialInference(b *testing.B) {
	for _, tc := range []struct {
		name  string
		build func(testing.TB) (*graph.Graph, model.Epoch)
	}{
		{"halo=small", func(b testing.TB) (*graph.Graph, model.Epoch) { return buildWarehouseGraph(b, 16, 4, 20) }},
		{"halo=wide", func(b testing.TB) (*graph.Graph, model.Epoch) { return buildShelfGraph(b, 2, 40, 20) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			g, now := tc.build(b)
			inf, err := New(DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inf.Infer(g, now, Partial)
			}
			b.StopTimer()
			b.ReportMetric(float64(inf.LastStats().NodesInferred), "nodes-inferred")
		})
	}
}

// BenchmarkResolveConflicts measures the post-processing pass.
func BenchmarkResolveConflicts(b *testing.B) {
	g, now := buildWarehouseGraph(b, 16, 4, 20)
	inf, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	levelOf := func(t model.Tag) model.Level {
		l, _ := epc.LevelOf(t)
		return l
	}
	base := inf.Infer(g, now, Complete)
	var res Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Conflict resolution mutates; copy the rows per iteration.
		base.CopyTo(&res)
		ResolveConflicts(&res, levelOf, nil)
	}
}
