package smurf

import (
	"math/rand"
	"testing"

	"spire/internal/model"
)

func BenchmarkProcessBatch(b *testing.B) {
	readers := []model.Reader{{ID: 1, Location: 0, Period: 1, ReadRate: 1}}
	c, err := New(DefaultConfig(), readers)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	// Warm with 2000 tags.
	warm := model.NewBatch(1)
	warm.BeginReader(1)
	for i := 0; i < 2000; i++ {
		warm.Append(model.Tag(i + 1))
	}
	if _, err := c.ProcessBatch(warm); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := model.NewBatch(model.Epoch(i + 2))
		o.BeginReader(1)
		for g := 1; g <= 2000; g++ {
			if rng.Float64() < 0.85 {
				o.Append(model.Tag(g))
			}
		}
		if _, err := c.ProcessBatch(o); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(2000, "tags")
}
