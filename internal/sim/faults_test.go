package sim

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"spire/internal/model"
	"spire/internal/stream"
)

// syntheticTrace builds a small epoch-ordered trace with two readers.
func syntheticTrace(n int) []*model.Batch {
	trace := make([]*model.Batch, 0, n)
	for e := model.Epoch(1); e <= model.Epoch(n); e++ {
		b := model.NewBatch(e)
		b.AppendGroup(1, []model.Tag{model.Tag(100 + uint64(e))})
		b.AppendGroup(2, []model.Tag{model.Tag(200 + uint64(e))})
		trace = append(trace, b)
	}
	return trace
}

func TestFaultInjectorDeterministicAndNonMutating(t *testing.T) {
	trace := syntheticTrace(60)
	pristine := make([]*model.Batch, len(trace))
	for i, b := range trace {
		pristine[i] = b.Clone()
	}
	cfg := FaultConfig{
		Seed:          5,
		DropoutEvery:  10,
		DropoutLen:    2,
		DropEpochRate: 0.1,
	}
	a := NewFaultInjector(cfg).Apply(trace)
	b := NewFaultInjector(cfg).Apply(trace)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed must produce the same fault schedule")
	}
	if !reflect.DeepEqual(trace, pristine) {
		t.Fatal("Apply mutated the input trace")
	}
	// The emitted batches must be clones, not aliases.
	for _, b := range a {
		for i := range trace {
			if b == trace[i] || &b.Tags[0] == &trace[i].Tags[0] {
				t.Fatal("Apply emitted an input batch by reference")
			}
		}
	}
	other := NewFaultInjector(FaultConfig{Seed: 6, DropEpochRate: 0.3}).Apply(trace)
	if reflect.DeepEqual(a, other) {
		t.Fatal("different seeds should produce different schedules")
	}
}

func TestFaultInjectorFaultKinds(t *testing.T) {
	trace := syntheticTrace(100)

	// Lost epochs leave gaps; what survives is still delivered in
	// strictly increasing epoch order.
	lossy := NewFaultInjector(FaultConfig{Seed: 1, DropEpochRate: 0.3}).Apply(trace)
	if len(lossy) >= len(trace) {
		t.Errorf("epoch drops: %d batches from %d", len(lossy), len(trace))
	}
	for i := 1; i < len(lossy); i++ {
		if lossy[i].Time <= lossy[i-1].Time {
			t.Fatalf("delivery out of epoch order: %d after %d", lossy[i].Time, lossy[i-1].Time)
		}
	}

	dropped := NewFaultInjector(FaultConfig{Seed: 1, DropoutEvery: 10, DropoutLen: 3}).Apply(trace)
	silenced := 0
	for i, b := range dropped {
		if err := b.Validate(); err != nil {
			t.Fatalf("epoch %d: %v", b.Time, err)
		}
		if len(b.Groups) < len(trace[i].Groups) {
			silenced++
			// The survivor keeps its own readings.
			g := b.Groups[0]
			want := model.Tag(100*uint64(g.Reader) + uint64(b.Time))
			if !slices.Equal(b.GroupTags(0), []model.Tag{want}) {
				t.Fatalf("epoch %d: survivor reader %d holds %v, want [%d]", b.Time, g.Reader, b.GroupTags(0), want)
			}
		}
	}
	if silenced == 0 {
		t.Error("dropout bursts silenced no readers")
	}
}

func TestTruncateMidRecord(t *testing.T) {
	var buf bytes.Buffer
	w := stream.NewWriter(&buf)
	for _, rd := range []model.Reading{
		{Tag: 1, Reader: 1, Time: 1},
		{Tag: 2, Reader: 1, Time: 1},
		{Tag: 3, Reader: 2, Time: 2},
	} {
		if err := w.Write(rd); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	torn := TruncateMidRecord(raw, 1)
	want := 1*stream.ReadingSize + stream.ReadingSize/2
	if len(torn) != want {
		t.Fatalf("truncated to %d bytes, want %d", len(torn), want)
	}
	// Past the end the cut clamps to the stream length.
	if got := TruncateMidRecord(raw, 99); len(got) != len(raw) {
		t.Fatalf("out-of-range truncation returned %d bytes, want %d", len(got), len(raw))
	}
}
