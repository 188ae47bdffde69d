// Quickstart: run the SPIRE substrate over a short simulated warehouse
// trace and print the compressed event stream it produces.
//
// This is the smallest end-to-end use of the library: build a simulator
// (or any source of per-epoch reading batches), wire a core.Substrate
// over its reader deployment, feed batches epoch by epoch, and consume
// the emitted events.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"spire/internal/core"
	"spire/internal/epc"
	"spire/internal/inference"
	"spire/internal/model"
	"spire/internal/sim"
)

func main() {
	// A small warehouse: one pallet of 3 cases × 4 items arrives, flows
	// through belt and shelves, is repackaged and ships out.
	cfg := sim.DefaultConfig()
	cfg.Duration = 400
	cfg.PalletInterval = 1000 // a single arrival
	cfg.CasesMin, cfg.CasesMax = 3, 3
	cfg.ItemsPerCase = 4
	cfg.ShelfTime = 120
	cfg.ShelfPeriod = 10
	s, err := sim.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// The substrate: deduplication, graph capture, inference, and level-1
	// (range) compression, configured with the paper's default inference
	// parameters.
	sub, err := core.New(core.Config{
		Readers:   s.Readers(),
		Locations: s.Locations(),
		Inference: inference.DefaultConfig(),
	})
	if err != nil {
		log.Fatal(err)
	}

	locName := make(map[model.LocationID]string)
	for _, l := range s.Locations() {
		locName[l.ID] = l.Name
	}

	for !s.Done() {
		b, err := s.Step()
		if err != nil {
			log.Fatal(err)
		}
		out, err := sub.ProcessBatch(b)
		if err != nil {
			log.Fatal(err)
		}
		for _, e := range out.Events {
			switch {
			case e.Kind.Containment():
				fmt.Printf("t=%-4d %-17s %s inside %s\n",
					b.Time, e.Kind, tag(e.Object), tag(e.Container))
			case e.Location.Known():
				fmt.Printf("t=%-4d %-17s %s at %s\n",
					b.Time, e.Kind, tag(e.Object), locName[e.Location])
			default:
				fmt.Printf("t=%-4d %-17s %s\n", b.Time, e.Kind, tag(e.Object))
			}
		}
	}
	st := sub.Stats()
	fmt.Printf("\n%d raw readings (%d bytes) became %d events (%d bytes): ratio %.3f\n",
		st.Readings, st.RawBytes, st.Events, st.EventBytes,
		float64(st.EventBytes)/float64(st.RawBytes))
}

func tag(g model.Tag) string {
	id, err := epc.Decode(g)
	if err != nil {
		return fmt.Sprint(g)
	}
	return fmt.Sprintf("%s-%d", id.Level, id.Serial)
}
