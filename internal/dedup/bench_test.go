package dedup

import (
	"testing"

	"spire/internal/model"
)

// BenchmarkIngestDedup measures CleanBatch over a warm steady-state
// batch: 256 reader groups of 24 distinct tags each, every tag already
// known to the deduplicator. The pristine batch is copied into a reused
// working batch each iteration because CleanBatch compacts in place.
func BenchmarkIngestDedup(b *testing.B) {
	pristine := model.NewBatch(0)
	for r := 0; r < 256; r++ {
		pristine.BeginReader(model.ReaderID(10 + r))
		for k := 0; k < 24; k++ {
			pristine.Append(model.Tag(1 + r*24 + k))
		}
	}
	d := New()
	var work model.Batch
	warm := func(t model.Epoch) {
		work.Time = t
		work.Groups = append(work.Groups[:0], pristine.Groups...)
		work.Tags = append(work.Tags[:0], pristine.Tags...)
		d.CleanBatch(&work)
	}
	warm(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		warm(model.Epoch(i + 2))
	}
	b.ReportMetric(float64(pristine.Total()), "readings/op")
}
