package core

import (
	"testing"

	"spire/internal/model"
)

// gateRing builds a reusable ring of batches (two readers, fixed tags)
// plus duplicate deliveries of the same epochs, so a steady-state ingest
// loop can run indefinitely without constructing new input.
func gateRing(n int) (obs, dups []*model.Batch) {
	mk := func() *model.Batch {
		b := &model.Batch{}
		b.AppendGroup(1, []model.Tag{10, 11, 12, 13})
		b.AppendGroup(2, []model.Tag{11, 12, 20, 21})
		return b
	}
	for i := 0; i < n; i++ {
		obs = append(obs, mk())
		dups = append(dups, mk())
	}
	return obs, dups
}

// TestIngestGateSteadyStateAllocs pins the gate scratch reuse: once warm,
// the repair path (buffer, merge a duplicate delivery, flush through the
// reorder window) and the reject path allocate nothing per offer. Before
// the scratch hoist, every flush built a fresh ready slice and output
// slice and every merge a fresh seen map.
func TestIngestGateSteadyStateAllocs(t *testing.T) {
	repair := newWindowGate(IngestRepair, 4, 0)
	obs, dups := gateRing(16)
	epoch := model.Epoch(0)
	repairStep := func() {
		epoch++
		i := int(epoch) % len(obs)
		obs[i].Time = epoch
		dups[i].Time = epoch
		repair.Offer(obs[i])
		repair.Offer(dups[i]) // duplicate epoch: exercises the merge path
	}
	for i := 0; i < 200; i++ {
		repairStep()
	}
	if got := testing.AllocsPerRun(500, repairStep); got != 0 {
		t.Errorf("repair gate steady state allocates %.1f allocs/op, want 0", got)
	}
	stats := repair.stats
	if stats.Merged == 0 || stats.Accepted == 0 {
		t.Fatalf("merge path not exercised: %+v", stats)
	}

	reject := newIngestGate(IngestConfig{Policy: IngestReject}, 0)
	rObs, _ := gateRing(16)
	epoch = 0
	rejectStep := func() {
		epoch++
		i := int(epoch) % len(rObs)
		rObs[i].Time = epoch
		reject.Offer(rObs[i])
		reject.Offer(rObs[i]) // stale duplicate: dropped
	}
	for i := 0; i < 200; i++ {
		rejectStep()
	}
	if got := testing.AllocsPerRun(500, rejectStep); got != 0 {
		t.Errorf("reject gate steady state allocates %.1f allocs/op, want 0", got)
	}
	if reject.stats.Stale == 0 {
		t.Fatalf("stale path not exercised: %+v", reject.stats)
	}
}
