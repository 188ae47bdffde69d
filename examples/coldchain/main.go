// Cold-chain / hazmat compliance: use SPIRE's containment stream to check
// packaging policies that raw RFID readings cannot express.
//
// The paper's introduction motivates exactly this: an RFID stream does
// not directly reveal "whether flammable objects are secured in a
// fire-proof container". This example tags a subset of items as
// flammable and a subset of cases as fire-proof (by EPC item reference,
// the way a real deployment encodes product classes), then audits the
// inferred containment stream continuously: a flammable item contained in
// a non-fire-proof case is a violation, as is a flammable item reported
// with no container at all outside the packing areas.
//
//	go run ./examples/coldchain
package main

import (
	"fmt"
	"log"

	"spire/internal/core"
	"spire/internal/epc"
	"spire/internal/event"
	"spire/internal/inference"
	"spire/internal/model"
	"spire/internal/sim"
)

// Product classes are encoded in the EPC item reference: odd item
// references are flammable goods; cases with even item references are
// fire-proof. The simulator mints item references deterministically, so
// roughly half the inventory is in each class.
func flammable(g model.Tag) bool {
	id, err := epc.Decode(g)
	return err == nil && id.Level == model.LevelItem && id.Serial%2 == 1
}

func fireproof(g model.Tag) bool {
	id, err := epc.Decode(g)
	return err == nil && id.Level == model.LevelCase && id.Serial%2 == 0
}

func main() {
	cfg := sim.DefaultConfig()
	cfg.Duration = 2 * 3600
	cfg.PalletInterval = 300
	cfg.CasesMin, cfg.CasesMax = 4, 6
	cfg.ItemsPerCase = 6
	cfg.ShelfTime = 1200
	s, err := sim.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	sub, err := core.New(core.Config{
		Readers:   s.Readers(),
		Locations: s.Locations(),
		Inference: inference.DefaultConfig(),
	})
	if err != nil {
		log.Fatal(err)
	}

	// The audit consumes only the containment sub-stream — the location
	// stream can be suppressed entirely, the independence property of
	// range compression the paper points out.
	container := make(map[model.Tag]model.Tag) // current container per item
	violations := make(map[model.Tag]model.Epoch)
	checked := 0
	report := func(item model.Tag, into model.Tag, t model.Epoch) {
		checked++
		if !flammable(item) {
			return
		}
		if fireproof(into) {
			delete(violations, item)
			return
		}
		if _, open := violations[item]; !open {
			violations[item] = t
			fmt.Printf("VIOLATION t=%-5d flammable %s packed into non-fire-proof %s\n",
				t, name(item), name(into))
		}
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
			switch e.Kind {
			case event.StartContainment:
				if levelOf(e.Object) == model.LevelItem && levelOf(e.Container) == model.LevelCase {
					container[e.Object] = e.Container
					report(e.Object, e.Container, e.Vs)
				}
			case event.EndContainment:
				if container[e.Object] == e.Container {
					delete(container, e.Object)
					delete(violations, e.Object)
				}
			}
		}
	}

	fmt.Printf("\n--- audit summary ---\n")
	fmt.Printf("item-into-case packings checked: %d\n", checked)
	fmt.Printf("standing violations:             %d\n", len(violations))
	fmt.Printf("(the simulator packs at random, so roughly half of all\n")
	fmt.Printf(" flammable items should land in non-fire-proof cases)\n")
}

func levelOf(g model.Tag) model.Level {
	l, _ := epc.LevelOf(g)
	return l
}

func name(g model.Tag) string {
	id, err := epc.Decode(g)
	if err != nil {
		return fmt.Sprint(g)
	}
	return fmt.Sprintf("%s-%d", id.Level, id.Serial)
}
