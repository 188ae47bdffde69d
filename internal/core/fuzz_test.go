package core

import (
	"bytes"
	"testing"

	"spire/internal/inference"
	"spire/internal/sim"
)

// seedSnapshot builds a real snapshot of a small but non-trivial pipeline
// state, so the fuzzer starts from valid bytes rather than having to
// stumble onto the format.
func seedSnapshot(f *testing.F) []byte {
	cfg := sim.DefaultConfig()
	cfg.Duration = 60
	cfg.PalletInterval = 40
	cfg.ItemsPerCase = 3
	cfg.ShelfTime = 60
	cfg.ShelfPeriod = 10
	s, err := sim.New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	sub, err := New(Config{
		Readers:     s.Readers(),
		Locations:   s.Locations(),
		Inference:   inference.DefaultConfig(),
		Compression: Level2,
	})
	if err != nil {
		f.Fatal(err)
	}
	for !s.Done() {
		o, err := s.Step()
		if err != nil {
			f.Fatal(err)
		}
		if _, err := sub.ProcessBatch(o); err != nil {
			f.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := sub.Snapshot(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzRestoreSnapshot: restoring arbitrary bytes must either fail cleanly
// or yield a substrate whose own snapshot is a stable fixed point — never
// panic, never half-apply.
func FuzzRestoreSnapshot(f *testing.F) {
	snap := seedSnapshot(f)
	f.Add(snap)
	trunc := append([]byte(nil), snap[:len(snap)/3]...)
	f.Add(trunc)
	flip := append([]byte(nil), snap...)
	flip[len(flip)/2] ^= 0x10
	f.Add(flip)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		sub, err := RestoreSubstrate(bytes.NewReader(data))
		if err != nil {
			if sub != nil {
				t.Fatal("RestoreSubstrate returned a substrate alongside an error")
			}
			return
		}
		var s1 bytes.Buffer
		if err := sub.Snapshot(&s1); err != nil {
			t.Fatalf("restored substrate cannot snapshot: %v", err)
		}
		sub2, err := RestoreSubstrate(bytes.NewReader(s1.Bytes()))
		if err != nil {
			t.Fatalf("own snapshot does not restore: %v", err)
		}
		var s2 bytes.Buffer
		if err := sub2.Snapshot(&s2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(s1.Bytes(), s2.Bytes()) {
			t.Fatal("snapshot/restore is not a fixed point")
		}
	})
}
