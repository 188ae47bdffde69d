package core

import (
	"bytes"
	"testing"

	"spire/internal/inference"
	"spire/internal/sim"
)

// shelfScaleSubstrate runs a world shaped like the benchmark's
// shelf_scale workload (64 shelves read once a minute, a pallet every 15
// epochs of 5-8 cases of 20 items, level-2 compression) for its 700-epoch
// ramp, the state its checkpoint captures.
func shelfScaleSubstrate(b *testing.B) *Substrate {
	b.Helper()
	cfg := sim.DefaultConfig()
	cfg.ReadRate = 0.95
	cfg.ShelfPeriod = 60
	cfg.NumShelves = 64
	cfg.ShelfTime = 500
	cfg.PalletInterval = 15
	cfg.CasesMin, cfg.CasesMax = 5, 8
	cfg.ItemsPerCase = 20
	cfg.BeltDwell = 1
	cfg.EntryDwell = 2
	cfg.Duration = 700
	s, err := sim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sub, err := New(Config{
		Readers:     s.Readers(),
		Locations:   s.Locations(),
		Inference:   inference.DefaultConfig(),
		Compression: Level2,
	})
	if err != nil {
		b.Fatal(err)
	}
	for !s.Done() {
		o, err := s.Step()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sub.ProcessBatch(o); err != nil {
			b.Fatal(err)
		}
	}
	return sub
}

// BenchmarkSnapshot encodes the shelf_scale-shaped substrate, the work
// core.Runner does on the epoch path at every checkpoint.
func BenchmarkSnapshot(b *testing.B) {
	sub := shelfScaleSubstrate(b)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := sub.Snapshot(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len())/float64(sub.Graph().Len()), "B/node")
}

// BenchmarkRestore rebuilds the shelf_scale-shaped substrate from its
// snapshot, the set-up every restart and zone-worker resume pays.
func BenchmarkRestore(b *testing.B) {
	sub := shelfScaleSubstrate(b)
	var buf bytes.Buffer
	if err := sub.Snapshot(&buf); err != nil {
		b.Fatal(err)
	}
	snap := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RestoreSubstrate(bytes.NewReader(snap)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(snap))/float64(sub.Graph().Len()), "B/node")
}
