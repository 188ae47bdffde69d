package main

import (
	"fmt"

	"spire/internal/core"
	"spire/internal/model"
	"spire/internal/sim"
)

// workload is one replayed RFID scenario. The simulator runs Ramp epochs
// to build a resident population (untimed, outside every pass), then
// LeadIn epochs each pass replays untimed to warm the restored system,
// then Timed epochs whose replay is what the run measures.
type workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json
	// carries the same text).
	Why string

	// Sim is the warehouse. generate fills in Seed and Duration, and
	// applies ReadRate itself (see readNoise).
	Sim   sim.Config
	Level core.CompressionLevel

	Ramp, LeadIn, Timed model.Epoch

	// Serving routes every epoch's output through the whole serving path:
	// event log, decompressor, query store with a read mix, CEP engine.
	Serving bool
	// Zones > 0 runs the trace through a loopback federate cluster of
	// that many zone workers instead of one substrate.
	Zones int

	// FFloor is the event F-measure below which the run counts as wrong:
	// about 0.02 under the lowest of the workload's F-measures on seeds
	// 1-20 (results/seeds-2026-09-28.md), so a loss of accuracy the
	// relative bound on event_f_measure would let through fails outright.
	FFloor float64
}

// Every workload replays at least minTimedEpochs timed epochs, so at least
// 12 samples lie beyond the reported 99th percentile. The simulator runs
// timedEpochs of them — 21 complete-inference cycles of the once-a-minute
// shelf readers — because the wire format drops the odd epoch in which no
// reader saw anything.
const (
	minTimedEpochs = 1200
	timedEpochs    = 1260
)

func baseSim() sim.Config {
	c := sim.DefaultConfig()
	c.ReadRate = 0.95
	return c
}

// workloads returns the benchmark's four scenarios. The shapes follow the
// paper's Section VI sweeps, scaled so that one pass replays in a few
// seconds on a 2-core host.
func workloads() []workload {
	dense := baseSim()
	dense.ShelfPeriod = 1
	dense.NumShelves = 8
	dense.ShelfTime = 480
	dense.PalletInterval = 60
	dense.CasesMin, dense.CasesMax = 5, 8
	dense.ItemsPerCase = 10

	shelf := baseSim()
	shelf.ShelfPeriod = 60
	shelf.NumShelves = 64
	shelf.ShelfTime = 500
	shelf.PalletInterval = 15
	shelf.CasesMin, shelf.CasesMax = 5, 8
	shelf.ItemsPerCase = 20
	shelf.BeltDwell = 1
	shelf.EntryDwell = 2

	flow := baseSim()
	flow.ShelfPeriod = 30
	flow.NumShelves = 16
	flow.ShelfTime = 450
	flow.PalletInterval = 32
	flow.CasesMin, flow.CasesMax = 5, 8
	flow.ItemsPerCase = 20
	flow.TheftInterval = 100

	// The same kind of world as experiments.benchZonesConfig, busier so
	// each zone's substrate has work every epoch, and small enough that a
	// pass can replay it twice (see replayCluster).
	zones := baseSim()
	zones.ShelfPeriod = 20
	zones.NumShelves = 8
	zones.ShelfTime = 300
	zones.PalletInterval = 30
	zones.CasesMin, zones.CasesMax = 5, 8
	zones.ItemsPerCase = 10
	zones.TheftInterval = 500

	return []workload{
		{
			Name: "dense_reads",
			Why:  "shelf readers fire every epoch: most readings per object, every epoch a complete inference pass, almost no output",
			Sim:  dense, Level: core.Level1,
			Ramp: 720, LeadIn: 60, Timed: timedEpochs,
			FFloor: 0.98,
		},
		{
			Name: "shelf_scale",
			Why:  "large resident graph scanned once a minute: 59 of 60 epochs partial inference, 1 complete; state size and restore dominate",
			Sim:  shelf, Level: core.Level2,
			Ramp: 700, LeadIn: 60, Timed: timedEpochs,
			FFloor: 0.95,
		},
		{
			Name: "warehouse_flow",
			Why:  "full lifecycle with churn and theft through event log, query store with reads and 10k CEP subscriptions: most events per reading",
			Sim:  flow, Level: core.Level2,
			Ramp: 700, LeadIn: 60, Timed: timedEpochs,
			Serving: true,
			FFloor:  0.90,
		},
		{
			Name: "cluster_2zone",
			Why:  "two zone workers over loopback TCP into one coordinator, replayed free-running for throughput and gated for latency: the only workload where frames, barrier and merge do work",
			Sim:  zones, Level: core.Level1,
			Ramp: 600, LeadIn: 0, Timed: timedEpochs,
			Zones:  2,
			FFloor: 0.91,
		},
	}
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// validate is the generator's guard: it rejects a workload whose
// receiving belt cannot keep up with arrivals. The belt takes one case every BeltDwell epochs, so a pallet
// must be fully scanned before the next one's cases are released; a
// config on the wrong side of this inequality grows the belt queue
// without bound and the run measures a quadratic entry backlog.
func (w workload) validate() error {
	c := w.Sim
	perArrival := model.Epoch(c.CasesMax*c.PalletsPerArrival) * c.BeltDwell
	if c.PalletInterval < perArrival+c.EntryDwell {
		return fmt.Errorf("workload %s: PalletInterval %d < CasesMax×PalletsPerArrival×BeltDwell + EntryDwell = %d: the receiving belt backs up without bound",
			w.Name, c.PalletInterval, perArrival+c.EntryDwell)
	}
	if w.Ramp < 1 {
		return fmt.Errorf("workload %s: ramp must be at least one epoch", w.Name)
	}
	return nil
}
