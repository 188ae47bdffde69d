package dedup

import (
	"testing"

	"spire/internal/model"
)

// TestDirectoryReusesFreedSlots churns fresh populations through the
// directory: every round reads n new tags and forgets them, so the slot
// columns must stay at the peak population instead of growing per round.
func TestDirectoryReusesFreedSlots(t *testing.T) {
	const n, rounds = 64, 20
	d := New()
	var b model.Batch
	next := model.Tag(1)
	for round := 0; round < rounds; round++ {
		b.Reset(model.Epoch(round + 1))
		b.BeginReader(1)
		for i := 0; i < n; i++ {
			b.Append(next + model.Tag(i))
		}
		b.BeginReader(2)
		for i := 0; i < n; i += 2 {
			b.Append(next + model.Tag(i))
		}
		d.CleanBatch(&b)
		if d.Len() != n || len(d.dir) != n {
			t.Fatalf("round %d: %d tracked, %d in the directory, want %d", round, d.Len(), len(d.dir), n)
		}
		for i := 0; i < n; i++ {
			d.Forget(next + model.Tag(i))
		}
		next += n
		if d.Len() != 0 || len(d.dir) != 0 || len(d.free) != n {
			t.Fatalf("round %d after Forget: %d tracked, %d in the directory, %d free", round, d.Len(), len(d.dir), len(d.free))
		}
		if len(d.slots) != n {
			t.Fatalf("round %d: %d slots, want the peak population %d", round, len(d.slots), n)
		}
	}
}

// TestRetireKeepsSlot pins the retired mark's slot lifetime: Retire drops
// history but keeps the slot; Forget of a retired tag keeps the mark;
// resurrection clears it.
func TestRetireKeepsSlot(t *testing.T) {
	d := New()
	var b model.Batch
	b.Reset(1)
	b.AppendGroup(1, []model.Tag{10, 11})
	d.CleanBatch(&b)
	d.Retire(10)
	d.Forget(10)
	if d.Len() != 1 || len(d.Retired()) != 1 || len(d.dir) != 2 {
		t.Fatalf("after Retire: %d tracked, retired %v, %d in the directory", d.Len(), d.Retired(), len(d.dir))
	}
	b.Reset(2)
	b.AppendGroup(2, []model.Tag{10})
	d.CleanBatch(&b)
	if !d.RetiredAt(0) || d.Len() != 2 {
		t.Fatalf("retired tag read again: RetiredAt = %v, %d tracked", d.RetiredAt(0), d.Len())
	}
	d.ResurrectAt(0)
	if got := d.Retired(); len(got) != 0 {
		t.Fatalf("after ResurrectAt: retired %v", got)
	}
}
