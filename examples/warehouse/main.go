// Warehouse monitoring: use SPIRE's Missing messages to raise theft
// alerts in a warehouse where shelved cases occasionally disappear.
//
// The example runs a multi-hour trace with one theft every ~3 minutes,
// watches the compressed output stream for Missing messages on objects
// that never properly exited, and finally scores its alerts against the
// simulator's ground-truth theft log — the application-level view of the
// paper's Expt 4.
//
//	go run ./examples/warehouse
package main

import (
	"fmt"
	"log"
	"sort"

	"spire/internal/core"
	"spire/internal/epc"
	"spire/internal/event"
	"spire/internal/inference"
	"spire/internal/metrics"
	"spire/internal/model"
	"spire/internal/sim"
)

func main() {
	cfg := sim.DefaultConfig()
	cfg.Duration = 4 * 3600
	cfg.PalletInterval = 400
	cfg.ItemsPerCase = 10
	cfg.ShelfTime = 1800
	cfg.TheftInterval = 187
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
	locName := make(map[model.LocationID]string)
	for _, l := range s.Locations() {
		locName[l.ID] = l.Name
	}

	// The monitoring application: Missing messages become alerts, unless
	// the object reappears (a false alarm retracted by a later
	// StartLocation).
	alerts := make(map[model.Tag]model.Epoch)
	retracted := 0
	var allEvents []event.Event
	for !s.Done() {
		b, err := s.Step()
		if err != nil {
			log.Fatal(err)
		}
		out, err := sub.ProcessBatch(b)
		if err != nil {
			log.Fatal(err)
		}
		allEvents = append(allEvents, out.Events...)
		for _, e := range out.Events {
			switch e.Kind {
			case event.Missing:
				if _, seen := alerts[e.Object]; !seen {
					alerts[e.Object] = e.Vs
					fmt.Printf("ALERT t=%-5d %s missing from %s\n",
						e.Vs, describe(e.Object), locName[e.Location])
				}
			case event.StartLocation:
				if _, seen := alerts[e.Object]; seen {
					delete(alerts, e.Object)
					retracted++
					fmt.Printf("clear t=%-5d %s reappeared at %s\n",
						e.Vs, describe(e.Object), locName[e.Location])
				}
			}
		}
	}

	// Score the standing alerts against the ground truth.
	thefts := make(map[model.Tag]model.Epoch)
	for _, th := range s.Thefts() {
		thefts[th.Case] = th.At
	}
	det := metrics.DetectionDelays(allEvents, thefts)
	truePos := 0
	var falsePos []model.Tag
	for g := range alerts {
		// Items inside a stolen case alert along with it; attribute them
		// to the theft of their case for scoring.
		if _, stolen := thefts[g]; stolen {
			truePos++
		} else if _, stolenParent := thefts[stolenAncestor(s, g, thefts)]; !stolenParent {
			falsePos = append(falsePos, g)
		}
	}
	sort.Slice(falsePos, func(i, j int) bool { return falsePos[i] < falsePos[j] })

	fmt.Printf("\n--- shift report ---\n")
	fmt.Printf("thefts staged:        %d\n", det.Total)
	fmt.Printf("thefts detected:      %d (%.0f%%)\n", det.Detected,
		100*float64(det.Detected)/float64(max(det.Total, 1)))
	fmt.Printf("mean detection delay: %.1f s (max %d s)\n", det.MeanDelay, det.MaxDelay)
	fmt.Printf("standing alerts:      %d (%d case-level true positives)\n", len(alerts), truePos)
	fmt.Printf("false alarms retracted during the run: %d\n", retracted)
	if len(falsePos) > 0 {
		fmt.Printf("unattributed standing alerts: %d (first: %s)\n", len(falsePos), describe(falsePos[0]))
	}
}

// stolenAncestor maps an item to its stolen case, if any, using ground
// truth (application-side scoring only).
func stolenAncestor(s *sim.Simulator, g model.Tag, thefts map[model.Tag]model.Epoch) model.Tag {
	p := s.World().ParentOf(g)
	for p != model.NoTag {
		if _, ok := thefts[p]; ok {
			return p
		}
		p = s.World().ParentOf(p)
	}
	return model.NoTag
}

func describe(g model.Tag) string {
	id, err := epc.Decode(g)
	if err != nil {
		return fmt.Sprint(g)
	}
	return fmt.Sprintf("%s-%d", id.Level, id.Serial)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
