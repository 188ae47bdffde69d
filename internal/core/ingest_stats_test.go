package core

import (
	"fmt"
	"testing"

	"spire/internal/model"
	"spire/internal/sim"
)

// Property tests for the ingest gate's IngestStats bookkeeping. The gate
// is driven directly (no substrate), so all three policies can face
// arbitrarily broken delivery sequences; the assertions reconcile the
// gate's counters against conservation laws and against the fault
// injector's ground-truth FaultStats.

// syntheticTrace builds a clean epoch-ordered trace with a couple of
// readers; the gate only looks at epochs and per-reader tag sets.
func syntheticTrace(epochs int) []*model.Batch {
	trace := make([]*model.Batch, 0, epochs)
	for e := 1; e <= epochs; e++ {
		b := model.NewBatch(model.Epoch(e))
		b.AppendGroup(1, []model.Tag{model.Tag(e), model.Tag(e + 1)})
		b.AppendGroup(2, []model.Tag{model.Tag(e + 1), model.Tag(1000 + e)})
		trace = append(trace, b)
	}
	return trace
}

// runGateOnly drives one gate over a delivery sequence and returns the
// epochs it emitted, in emission order.
func runGateOnly(g *ingestGate, delivery []*model.Batch) []model.Epoch {
	var emitted []model.Epoch
	for _, o := range delivery {
		for _, r := range g.Offer(o.Clone()) {
			emitted = append(emitted, r.Time)
		}
	}
	for _, r := range g.Drain() {
		emitted = append(emitted, r.Time)
	}
	return emitted
}

func distinctEpochs(delivery []*model.Batch) int {
	seen := make(map[model.Epoch]bool)
	for _, o := range delivery {
		seen[o.Time] = true
	}
	return len(seen)
}

// TestIngestStatsConservation pins the accounting identity for all three
// policies under mixed fault loads: every offered batch is counted
// exactly once as Accepted, Stale, or Merged, and Accepted equals the
// number of batches actually emitted.
func TestIngestStatsConservation(t *testing.T) {
	trace := syntheticTrace(200)
	cfgs := []sim.FaultConfig{
		{Seed: 1},
		{Seed: 2, DuplicateRate: 0.3},
		{Seed: 3, SwapRate: 0.3},
		{Seed: 4, DropEpochRate: 0.2},
		{Seed: 5, DuplicateRate: 0.25, SwapRate: 0.25, DropEpochRate: 0.1},
		{Seed: 6, DuplicateRate: 0.5, SwapRate: 0.5, DropEpochRate: 0.25},
	}
	for _, fcfg := range cfgs {
		delivery := sim.NewFaultInjector(fcfg).Apply(trace)
		for _, policy := range []IngestPolicy{IngestStrict, IngestReject, IngestRepair} {
			name := fmt.Sprintf("seed=%d/%s", fcfg.Seed, policy)
			gate := newWindowGate(policy, 16, 0)
			emitted := runGateOnly(gate, delivery)
			st := gate.stats

			if got := st.Accepted + st.Stale + st.Merged; got != int64(len(delivery)) {
				t.Errorf("%s: Accepted+Stale+Merged = %d, want %d offers (%+v)",
					name, got, len(delivery), st)
			}
			if st.Accepted != int64(len(emitted)) {
				t.Errorf("%s: Accepted = %d but %d batches emitted", name, st.Accepted, len(emitted))
			}
			switch policy {
			case IngestStrict:
				// Hands-off: everything passes, nothing is dropped or merged.
				if st.Stale != 0 || st.Merged != 0 || st.Reordered != 0 || st.Accepted != int64(len(delivery)) {
					t.Errorf("%s: strict gate must pass everything through: %+v", name, st)
				}
			case IngestReject:
				// Spec: a batch is accepted iff its epoch exceeds
				// every previously accepted epoch.
				var wantAccepted, wantStale int64
				last := model.Epoch(0)
				for _, o := range delivery {
					if o.Time > last {
						last = o.Time
						wantAccepted++
					} else {
						wantStale++
					}
				}
				if st.Accepted != wantAccepted || st.Stale != wantStale {
					t.Errorf("%s: got Accepted=%d Stale=%d, want %d/%d",
						name, st.Accepted, st.Stale, wantAccepted, wantStale)
				}
				if st.Merged != 0 || st.Reordered != 0 {
					t.Errorf("%s: reject gate never merges or reorders: %+v", name, st)
				}
			case IngestRepair:
				// Repaired output is strictly increasing in epoch with no
				// duplicates, and never exceeds the distinct epochs offered.
				for i := 1; i < len(emitted); i++ {
					if emitted[i] <= emitted[i-1] {
						t.Fatalf("%s: repaired output not strictly increasing at %d: %v",
							name, i, emitted[i-1:i+1])
					}
				}
				if st.Accepted > int64(distinctEpochs(delivery)) {
					t.Errorf("%s: accepted %d epochs but only %d distinct offered",
						name, st.Accepted, distinctEpochs(delivery))
				}
			}
			// Emitted epochs under reject/repair are strictly increasing;
			// the substrate's monotonic-epoch check can therefore never
			// fire behind either gate.
			if policy != IngestStrict {
				last := model.Epoch(0)
				for _, e := range emitted {
					if e <= last {
						t.Fatalf("%s: emission not monotone: %v", name, emitted)
					}
					last = e
				}
			}
		}
	}
}

// TestIngestStatsMatchInjectorTruth reconciles the repair gate's Merged
// and Reordered counters with the injector's ground truth. Seeds are
// fixed, so each assertion is deterministic; the reorder window (16) is
// deep enough that no single-pass adjacent-swap chain in these schedules
// displaces a batch beyond repair.
func TestIngestStatsMatchInjectorTruth(t *testing.T) {
	trace := syntheticTrace(300)

	// Duplicates only: every duplicate arrives while its original is
	// still buffered, so Merged equals the injected duplicate count
	// exactly and nothing is stale or reordered.
	for seed := int64(1); seed <= 8; seed++ {
		inj := sim.NewFaultInjector(sim.FaultConfig{Seed: seed, DuplicateRate: 0.35})
		delivery := inj.Apply(trace)
		truth := inj.Stats()
		if truth.Duplicates == 0 {
			t.Fatalf("seed %d: injector produced no duplicates", seed)
		}
		gate := newWindowGate(IngestRepair, 16, 0)
		runGateOnly(gate, delivery)
		st := gate.stats
		if st.Merged != truth.Duplicates || st.Stale != 0 {
			t.Errorf("seed %d: Merged=%d Stale=%d, injector duplicated %d",
				seed, st.Merged, st.Stale, truth.Duplicates)
		}
		if st.Reordered != 0 {
			t.Errorf("seed %d: duplicates alone must not reorder: %+v", seed, st)
		}
		if st.Accepted != int64(len(trace)) {
			t.Errorf("seed %d: Accepted=%d, want every distinct epoch (%d)", seed, st.Accepted, len(trace))
		}
	}

	// Swaps only: every accepted epoch survives, nothing merges, and the
	// reorder counter is bounded by the number of swaps performed while
	// detecting at least one whenever the injector swapped at all.
	for seed := int64(1); seed <= 8; seed++ {
		inj := sim.NewFaultInjector(sim.FaultConfig{Seed: seed, SwapRate: 0.3})
		delivery := inj.Apply(trace)
		truth := inj.Stats()
		if truth.Swaps == 0 {
			t.Fatalf("seed %d: injector performed no swaps", seed)
		}
		gate := newWindowGate(IngestRepair, 16, 0)
		runGateOnly(gate, delivery)
		st := gate.stats
		if st.Merged != 0 || st.Stale != 0 {
			t.Errorf("seed %d: swaps alone must not merge or drop: %+v", seed, st)
		}
		if st.Reordered == 0 || st.Reordered > truth.Swaps {
			t.Errorf("seed %d: Reordered=%d outside (0, Swaps=%d]", seed, st.Reordered, truth.Swaps)
		}
		if st.Accepted != int64(len(trace)) {
			t.Errorf("seed %d: Accepted=%d, want %d", seed, st.Accepted, len(trace))
		}
	}

	// Mixed load: each injected duplicate is either merged (original
	// still buffered) or dropped stale (original already delivered), and
	// epoch drops surface as exactly that many missing accepted epochs.
	for seed := int64(1); seed <= 8; seed++ {
		inj := sim.NewFaultInjector(sim.FaultConfig{
			Seed: seed, DuplicateRate: 0.25, SwapRate: 0.25, DropEpochRate: 0.15,
		})
		delivery := inj.Apply(trace)
		truth := inj.Stats()
		gate := newWindowGate(IngestRepair, 16, 0)
		runGateOnly(gate, delivery)
		st := gate.stats
		if st.Merged+st.Stale != truth.Duplicates {
			t.Errorf("seed %d: Merged+Stale=%d, injector duplicated %d (%+v)",
				seed, st.Merged+st.Stale, truth.Duplicates, st)
		}
		if st.Accepted != int64(len(trace))-truth.DroppedEpochs {
			t.Errorf("seed %d: Accepted=%d, want %d-%d dropped",
				seed, st.Accepted, len(trace), truth.DroppedEpochs)
		}
		if st.Reordered > truth.Swaps {
			t.Errorf("seed %d: Reordered=%d exceeds injector swaps %d", seed, st.Reordered, truth.Swaps)
		}
	}
}
