package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"spire/internal/cep"
	"spire/internal/event"
	"spire/internal/sim"
)

// TestCEPReplayEqualsLive: a stored stream replayed through the
// complex-event engine makes the matches the live run made, in the same
// order. The live engine is fed each ProcessBatch output and the closing
// events one epoch per call; the replay engine is fed the encoded stream
// read back and regrouped by Emitted epoch, which skips every epoch that
// emitted nothing.
func TestCEPReplayEqualsLive(t *testing.T) {
	patterns := []string{
		"SEQ(missing(), NOT start()) WITHIN 60",
		cep.TheftPattern(40),
		"SEQ(start(), end()) WITHIN 30",
	}
	engine := func() (*cep.Engine, *[]cep.Match) {
		e := cep.NewEngine(cep.Config{})
		var ms []cep.Match
		for _, p := range patterns {
			if _, err := e.SubscribeFunc(p, func(m cep.Match) { ms = append(ms, m) }); err != nil {
				t.Fatal(err)
			}
		}
		return e, &ms
	}
	for seed := int64(1); seed <= 8; seed++ {
		for _, level := range []CompressionLevel{Level1, Level2} {
			t.Run(fmt.Sprintf("seed%d/level%d", seed, level), func(t *testing.T) {
				s := fastSim(t, func(c *sim.Config) {
					c.Seed = seed
					c.Duration = 1500
					c.TheftInterval = 100
				})
				sub := newSubstrate(t, s, level)
				live, liveMs := engine()
				var stream []event.Event
				for !s.Done() {
					b, err := s.Step()
					if err != nil {
						t.Fatal(err)
					}
					po, err := sub.ProcessBatch(b)
					if err != nil {
						t.Fatal(err)
					}
					live.Epoch(po.Epoch, po.Events)
					stream = append(stream, po.Events...)
				}
				end := sub.LastEpoch() + 1
				closing := sub.Close(end)
				live.Epoch(end, closing)
				stream = append(stream, closing...)

				evs, err := event.NewReader(bytes.NewReader(encodeEvents(t, stream))).ReadAll()
				if err != nil {
					t.Fatal(err)
				}
				replay, replayMs := engine()
				for i := 0; i < len(evs); {
					j := i + 1
					for j < len(evs) && evs[j].Emitted() == evs[i].Emitted() {
						j++
					}
					replay.Epoch(evs[i].Emitted(), evs[i:j])
					i = j
				}

				if len(*liveMs) == 0 {
					t.Fatal("the live run made no match")
				}
				if !slices.Equal(*replayMs, *liveMs) {
					i := 0
					for i < len(*replayMs) && i < len(*liveMs) && (*replayMs)[i] == (*liveMs)[i] {
						i++
					}
					t.Fatalf("replay made %d matches, live %d; first difference at match %d",
						len(*replayMs), len(*liveMs), i)
				}
			})
		}
	}
}
