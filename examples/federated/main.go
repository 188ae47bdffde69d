// Federated zones: run one SPIRE substrate per warehouse zone and merge
// their output streams into a single consistent, warehouse-wide stream —
// the distributed deployment sketched in the paper's future work.
//
// The warehouse is split at the packaging area: zone 0 owns the entry
// door, receiving belt, and shelves; zone 1 owns the packaging area,
// shipping belt, and exit door. Each zone's substrate only sees its own
// readers, so each believes objects vanish when they cross the boundary
// (zone 0 eventually reports them missing) and appear from nowhere on the
// other side. The federate.Merger reconciles the handoffs: stale
// intervals are closed at the crossing epoch and at most one zone at a
// time speaks for each object.
//
//	go run ./examples/federated
package main

import (
	"fmt"
	"log"

	"spire/internal/core"
	"spire/internal/event"
	"spire/internal/federate"
	"spire/internal/inference"
	"spire/internal/model"
	"spire/internal/sim"
)

func main() {
	cfg := sim.DefaultConfig()
	cfg.Duration = 1800
	cfg.PalletInterval = 200
	cfg.CasesMin, cfg.CasesMax = 3, 3
	cfg.ItemsPerCase = 5
	cfg.ShelfTime = 300
	cfg.ShelfPeriod = 10
	s, err := sim.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Split the deployment: readers at the packaging area and beyond
	// belong to zone 1.
	var pack model.LocationID
	for _, l := range s.Locations() {
		if l.Name == "packaging-area" {
			pack = l.ID
		}
	}
	var zoneReaders [2][]model.Reader
	zoneOf := make(map[model.ReaderID]int)
	for _, r := range s.Readers() {
		z := 0
		if r.Location >= pack {
			z = 1
		}
		zoneReaders[z] = append(zoneReaders[z], r)
		zoneOf[r.ID] = z
	}

	var subs [2]*core.Substrate
	for z := 0; z < 2; z++ {
		subs[z], err = core.New(core.Config{
			Readers:   zoneReaders[z],
			Locations: s.Locations(),
			Inference: inference.DefaultConfig(),
		})
		if err != nil {
			log.Fatal(err)
		}
	}

	merger := federate.NewMerger()
	var merged []event.Event
	var perZone [2]int
	handoffs := 0
	for !s.Done() {
		b, err := s.Step()
		if err != nil {
			log.Fatal(err)
		}
		// Split the epoch's reader groups by zone.
		var zb [2]model.Batch
		for z := range zb {
			zb[z].Reset(b.Time)
		}
		for i, g := range b.Groups {
			zb[zoneOf[g.Reader]].AppendGroup(g.Reader, b.GroupTags(i))
		}
		for z := 0; z < 2; z++ {
			out, err := subs[z].ProcessBatch(&zb[z])
			if err != nil {
				log.Fatal(err)
			}
			perZone[z] += len(out.Events)
			m, err := merger.Ingest(federate.ZoneID(z), out.Events)
			if err != nil {
				log.Fatal(err)
			}
			// Handoffs show up as merger-synthesized closes: more merged
			// output than zone input means a stale interval was closed.
			if len(m) > len(out.Events) {
				handoffs += len(m) - len(out.Events)
			}
			merged = append(merged, m...)
		}
		// Epoch barrier: resolve alarms for objects no zone re-claimed
		// this epoch.
		merged = append(merged, merger.EndEpoch()...)
	}
	end := s.Now() + 1
	for z := 0; z < 2; z++ {
		m, err := merger.Ingest(federate.ZoneID(z), subs[z].Close(end))
		if err != nil {
			log.Fatal(err)
		}
		merged = append(merged, m...)
	}
	merged = append(merged, merger.Close(end)...)

	if err := event.CheckWellFormed(merged, true); err != nil {
		log.Fatalf("merged stream malformed: %v", err)
	}
	fmt.Printf("zone 0 emitted %d events, zone 1 emitted %d events\n", perZone[0], perZone[1])
	fmt.Printf("merged warehouse-wide stream: %d events (well-formed), %d objects\n",
		len(merged), merger.Objects())
	fmt.Printf("cross-zone handoffs reconciled: %d\n", handoffs)
}
