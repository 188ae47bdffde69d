package core

import (
	"bytes"
	"testing"

	"spire/internal/event"
	"spire/internal/model"
	"spire/internal/sim"
)

// FuzzFaultedDeliveryRestore drives fault-injected delivery sequences
// (reader dropout bursts and lost epochs) into a level-2 substrate, kills
// it after a fuzzed epoch, restores it from its snapshot and replays the
// remaining epochs. The combined event stream must be well formed and
// byte-identical to the uninterrupted run's, and so must the final
// snapshots. The faults come from the fuzzed parameters, so the fuzzer
// explores the space of lossy reader feeds.
func FuzzFaultedDeliveryRestore(f *testing.F) {
	cfg := sim.DefaultConfig()
	cfg.Duration = 80
	cfg.PalletInterval = 40
	cfg.ItemsPerCase = 3
	cfg.ShelfTime = 60
	cfg.ShelfPeriod = 10
	s, err := sim.New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	var trace []*model.Batch
	for !s.Done() {
		o, err := s.Step()
		if err != nil {
			f.Fatal(err)
		}
		trace = append(trace, o)
	}

	f.Add(int64(1), byte(0), byte(0), byte(0), uint16(0))
	f.Add(int64(2), byte(10), byte(10), byte(3), uint16(20))
	f.Add(int64(3), byte(25), byte(7), byte(2), uint16(41))
	f.Add(int64(4), byte(0), byte(15), byte(5), uint16(79))
	f.Fuzz(func(t *testing.T, seed int64, drop, burstEvery, burstLen byte, kill uint16) {
		fcfg := sim.FaultConfig{
			Seed:          seed,
			DropEpochRate: float64(drop%32) / 100,
			DropoutEvery:  model.Epoch(burstEvery % 20),
			DropoutLen:    model.Epoch(burstLen % 5),
		}
		delivery := sim.NewFaultInjector(fcfg).Apply(trace)
		if len(delivery) == 0 {
			return
		}

		ref := newSubstrate(t, s, Level2)
		refEvents := runDelivery(t, ref, RunnerConfig{}, delivery)
		refSnap := snapshotBytes(t, ref)

		k := int(kill) % len(delivery)
		sub := newSubstrate(t, s, Level2)
		var stream []event.Event
		for _, o := range delivery[:k+1] {
			out, err := sub.ProcessBatch(o)
			if err != nil {
				t.Fatal(err)
			}
			stream = append(stream, out.Events...)
		}
		var snap bytes.Buffer
		if err := sub.Snapshot(&snap); err != nil {
			t.Fatal(err)
		}
		rsub, err := RestoreSubstrate(&snap)
		if err != nil {
			t.Fatalf("kill after epoch %d: restore: %v", delivery[k].Time, err)
		}
		for _, o := range delivery[k+1:] {
			out, err := rsub.ProcessBatch(o)
			if err != nil {
				t.Fatal(err)
			}
			stream = append(stream, out.Events...)
		}
		stream = append(stream, rsub.Close(rsub.LastEpoch()+1)...)

		if err := event.CheckWellFormed(stream, false); err != nil {
			t.Fatalf("kill after epoch %d: %v", delivery[k].Time, err)
		}
		if !bytes.Equal(encodeEvents(t, stream), encodeEvents(t, refEvents)) {
			t.Fatalf("kill after epoch %d: restored stream differs from the uninterrupted run (%d vs %d events)",
				delivery[k].Time, len(stream), len(refEvents))
		}
		if !bytes.Equal(snapshotBytes(t, rsub), refSnap) {
			t.Fatalf("kill after epoch %d: final snapshot differs from the uninterrupted run", delivery[k].Time)
		}
	})
}

// snapshotBytes returns sub's snapshot. It depends on the input alone, so
// two runs of the same input compare byte for byte.
func snapshotBytes(t *testing.T, sub *Substrate) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sub.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
