// On-demand decompression: run SPIRE with level-2 compression (locations
// of contained objects suppressed), then reconstruct a chosen item's full
// location timeline through the Decompressor — the query-processor
// front-end pattern of the paper's Section V-C.
//
//	go run ./examples/decompress
package main

import (
	"fmt"
	"log"

	"spire/internal/compress"
	"spire/internal/core"
	"spire/internal/epc"
	"spire/internal/event"
	"spire/internal/inference"
	"spire/internal/model"
	"spire/internal/sim"
)

func main() {
	cfg := sim.DefaultConfig()
	cfg.Duration = 1200
	cfg.PalletInterval = 300
	cfg.CasesMin, cfg.CasesMax = 3, 3
	cfg.ItemsPerCase = 4
	cfg.ShelfTime = 300
	cfg.ShelfPeriod = 10
	s, err := sim.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	sub, err := core.New(core.Config{
		Readers:     s.Readers(),
		Locations:   s.Locations(),
		Inference:   inference.DefaultConfig(),
		Compression: core.Level2,
	})
	if err != nil {
		log.Fatal(err)
	}
	locName := make(map[model.LocationID]string)
	for _, l := range s.Locations() {
		locName[l.ID] = l.Name
	}

	// The level-2 stream travels "over the wire"; the decompressor sits
	// in front of the query processor and reconstructs per-object
	// locations on demand.
	dec := compress.NewDecompressor()
	var compressed, reconstructed []event.Event
	for !s.Done() {
		b, err := s.Step()
		if err != nil {
			log.Fatal(err)
		}
		out, err := sub.ProcessBatch(b)
		if err != nil {
			log.Fatal(err)
		}
		compressed = append(compressed, out.Events...)
		d, err := dec.Step(out.Events)
		if err != nil {
			log.Fatal(err)
		}
		reconstructed = append(reconstructed, d...)
	}
	end := s.Now() + 1
	closing := sub.Close(end)
	compressed = append(compressed, closing...)
	d, err := dec.Step(closing)
	if err != nil {
		log.Fatal(err)
	}
	reconstructed = append(reconstructed, d...)
	reconstructed = append(reconstructed, dec.Close(end)...)

	// Pick the first item that appeared and print its reconstructed
	// timeline; under level 2 the compressed stream itself may have no
	// location events for it at all.
	var target model.Tag
	for _, e := range compressed {
		if l, _ := epc.LevelOf(e.Object); l == model.LevelItem {
			target = e.Object
			break
		}
	}
	if target == model.NoTag {
		log.Fatal("no item observed")
	}

	direct, viaDecomp := 0, 0
	fmt.Printf("location timeline of %s (reconstructed):\n", name(target))
	for _, e := range compressed {
		if e.Object == target && e.Kind.Location() {
			direct++
		}
	}
	for _, e := range reconstructed {
		if e.Object != target || e.Kind.Containment() {
			continue
		}
		viaDecomp++
		if e.Kind == event.StartLocation {
			fmt.Printf("  [%5d .. ", e.Vs)
		} else if e.Kind == event.EndLocation {
			fmt.Printf("%5d)  %s\n", e.Ve, locName[e.Location])
		}
	}
	fmt.Printf("\nlevel-2 stream carried %d location events for this item;\n", direct)
	fmt.Printf("decompression reconstructed %d from its containers' movements.\n", viaDecomp)
	fmt.Printf("stream sizes: level-2 %d B, reconstructed level-1 %d B (%.1f%% saved on the wire)\n",
		event.StreamSize(compressed), event.StreamSize(reconstructed),
		100*(1-float64(event.StreamSize(compressed))/float64(event.StreamSize(reconstructed))))
}

func name(g model.Tag) string {
	id, err := epc.Decode(g)
	if err != nil {
		return fmt.Sprint(g)
	}
	return fmt.Sprintf("%s-%d", id.Level, id.Serial)
}
