// Command genfuzzcorpus regenerates the committed fuzz seed corpora under
// the packages' testdata/fuzz directories. Run it from the repository
// root after changing a wire or snapshot format:
//
//	go run ./internal/tools/genfuzzcorpus
//
// The committed corpus keeps the interesting inputs — a real snapshot, a
// torn stream, a bit-flipped body — in version control, so `go test` (and
// the CI fuzz smoke step) always exercises them as seeds even without a
// long fuzzing run.
package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"spire/internal/checkpoint"
	"spire/internal/core"
	"spire/internal/inference"
	"spire/internal/model"
	"spire/internal/sim"
	"spire/internal/stream"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "genfuzzcorpus:", err)
		os.Exit(1)
	}
}

// writeSeed writes one corpus entry in the `go test fuzz v1` encoding for
// a single []byte argument.
func writeSeed(dir, name string, data []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
	return os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644)
}

func run() error {
	// Raw reading streams.
	var clean []byte
	for i := 0; i < 3; i++ {
		clean = stream.AppendReading(clean, model.Reading{
			Tag: model.Tag(i + 1), Reader: model.ReaderID(i%2 + 1), Time: model.Epoch(i),
		})
	}
	one := stream.AppendReading(nil, model.Reading{Tag: 0xDEADBEEF, Reader: 7, Time: 12345})
	decDir := "internal/stream/testdata/fuzz/FuzzDecodeReading"
	if err := writeSeed(decDir, "full-record", one); err != nil {
		return err
	}
	if err := writeSeed(decDir, "short-record", one[:stream.ReadingSize-3]); err != nil {
		return err
	}
	rdrDir := "internal/stream/testdata/fuzz/FuzzReader"
	if err := writeSeed(rdrDir, "clean-stream", clean); err != nil {
		return err
	}
	if err := writeSeed(rdrDir, "torn-stream", sim.TruncateMidRecord(clean, 2)); err != nil {
		return err
	}
	if err := writeSeed(rdrDir, "garbage", []byte("not a reading stream")); err != nil {
		return err
	}

	// Checkpoint container exercising every field type (kept in sync with
	// checkpoint.FuzzDecoder's read sequence).
	e := checkpoint.NewEncoder()
	e.Section("TEST")
	e.BaseEpoch(100)
	e.Uvarint(42)
	e.Varint(-7)
	e.Epoch(98)
	e.Epoch(model.EpochNone)
	e.Tag(model.NoTag, 5)
	e.Bool(true)
	e.Float64(3.5)
	e.String("hello")
	e.Uvarint(uint64(e.Len()))
	var ckpt bytes.Buffer
	if err := e.Flush(&ckpt); err != nil {
		return err
	}
	ckptDir := "internal/checkpoint/testdata/fuzz/FuzzDecoder"
	if err := writeSeed(ckptDir, "valid", ckpt.Bytes()); err != nil {
		return err
	}
	if err := writeSeed(ckptDir, "truncated", ckpt.Bytes()[:ckpt.Len()-3]); err != nil {
		return err
	}
	if err := writeSeed(ckptDir, "bad-magic", []byte("WRONGMAGIC-------------------")); err != nil {
		return err
	}

	// A real pipeline snapshot plus damaged variants.
	snap, err := buildSnapshot()
	if err != nil {
		return err
	}
	snapDir := "internal/core/testdata/fuzz/FuzzRestoreSnapshot"
	if err := writeSeed(snapDir, "valid-snapshot", snap); err != nil {
		return err
	}
	if err := writeSeed(snapDir, "truncated", snap[:len(snap)/3]); err != nil {
		return err
	}
	flip := append([]byte(nil), snap...)
	flip[len(flip)/2] ^= 0x10
	if err := writeSeed(snapDir, "bit-flipped", flip); err != nil {
		return err
	}
	fmt.Println("genfuzzcorpus: corpora written")
	return nil
}

// buildSnapshot runs a small deterministic simulation through the
// substrate and snapshots the resulting state. A snapshot depends on the
// input alone, so every run writes the same seed bytes.
func buildSnapshot() ([]byte, error) {
	cfg := sim.DefaultConfig()
	cfg.Duration = 60
	cfg.PalletInterval = 40
	cfg.ItemsPerCase = 3
	cfg.ShelfTime = 60
	cfg.ShelfPeriod = 10
	s, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	sub, err := core.New(core.Config{
		Readers:     s.Readers(),
		Locations:   s.Locations(),
		Inference:   inference.DefaultConfig(),
		Compression: core.Level2,
	})
	if err != nil {
		return nil, err
	}
	for !s.Done() {
		b, err := s.Step()
		if err != nil {
			return nil, err
		}
		if _, err := sub.ProcessBatch(b); err != nil {
			return nil, err
		}
	}
	var buf bytes.Buffer
	if err := sub.Snapshot(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
