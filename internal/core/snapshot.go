package core

import (
	"fmt"
	"io"
	"time"

	"spire/internal/checkpoint"
	"spire/internal/compress"
	"spire/internal/graph"
	"spire/internal/model"
)

// Snapshot/restore for the whole substrate.
//
// A snapshot is self-contained: it carries the substrate configuration
// (readers, locations, inference parameters) followed by every piece of
// cumulative state — the last processed epoch, accumulated stats, the
// dedup directory with its exit tombstones, the colored graph, and the
// compressor's open intervals. RestoreSubstrate therefore needs nothing
// but the snapshot bytes, and a restored substrate continues the event
// stream byte-identically to a process that never died. Nothing measured
// is stored, so equal inputs write equal snapshots.
//
// Derived state is rebuilt, not stored: the reader index, the
// exit set, the inference schedule (LCM of reader periods), and the
// inference scratch buffers all come back from the configuration. The
// per-epoch inference edge scratch (InferProb/InferStamp) is deliberately
// dropped — the pass counter restarts with the process, so persisting
// stamps could collide with fresh passes.

const (
	sectionConfig    = "CONF"
	sectionSubstrate = "SUBS"
)

// Minimum encoded sizes for count validation.
const (
	readerEncSize   = 1 + 1 + 1 + 8 + 1 + 1 // ID, location, period, read rate, two flags
	locationEncSize = 1 + 1 + 1             // ID + name length prefix + exit flag
)

func encodeConfig(e *checkpoint.Encoder, cfg *Config) {
	e.Section(sectionConfig)
	e.Uvarint(uint64(len(cfg.Readers)))
	for i := range cfg.Readers {
		r := &cfg.Readers[i]
		e.Varint(int64(r.ID))
		e.Varint(int64(r.Location))
		e.Varint(int64(r.Period))
		e.Float64(r.ReadRate)
		e.Bool(r.Confirming)
		e.Uint8(uint8(r.ConfirmLevel))
	}
	e.Uvarint(uint64(len(cfg.Locations)))
	for i := range cfg.Locations {
		l := &cfg.Locations[i]
		e.Varint(int64(l.ID))
		e.String(l.Name)
		e.Bool(l.Exit)
	}
	e.Float64(cfg.Inference.Beta)
	e.Bool(cfg.Inference.AdaptiveBeta)
	e.Float64(cfg.Inference.Gamma)
	e.Float64(cfg.Inference.Theta)
	e.Float64(cfg.Inference.PruneThreshold)
	e.Varint(int64(cfg.Inference.PartialHops))
	e.Uint8(uint8(cfg.Compression))
	e.Bool(cfg.KeepRawResult)
}

func decodeConfig(d *checkpoint.Decoder) (Config, error) {
	var cfg Config
	d.Section(sectionConfig)
	nr := d.Count(readerEncSize)
	cfg.Readers = make([]model.Reader, nr)
	for i := range cfg.Readers {
		r := &cfg.Readers[i]
		r.ID = model.ReaderID(d.Varint())
		r.Location = model.LocationID(d.Varint())
		r.Period = model.Epoch(d.Varint())
		r.ReadRate = d.Float64()
		r.Confirming = d.Bool()
		r.ConfirmLevel = model.Level(d.Uint8())
	}
	nl := d.Count(locationEncSize)
	cfg.Locations = make([]model.Location, nl)
	for i := range cfg.Locations {
		l := &cfg.Locations[i]
		l.ID = model.LocationID(d.Varint())
		l.Name = d.String()
		l.Exit = d.Bool()
	}
	cfg.Inference.Beta = d.Float64()
	cfg.Inference.AdaptiveBeta = d.Bool()
	cfg.Inference.Gamma = d.Float64()
	cfg.Inference.Theta = d.Float64()
	cfg.Inference.PruneThreshold = d.Float64()
	cfg.Inference.PartialHops = int(d.Varint())
	cfg.Compression = CompressionLevel(d.Uint8())
	cfg.KeepRawResult = d.Bool()
	return cfg, d.Err()
}

// Snapshot serializes the substrate's complete state to w in the
// versioned, checksummed checkpoint format. The substrate is unchanged;
// snapshots of equal state are byte-identical.
func (s *Substrate) Snapshot(w io.Writer) error {
	e := checkpoint.NewEncoder()
	encodeConfig(e, &s.cfg)

	e.Section(sectionSubstrate)
	e.BaseEpoch(s.lastNow)
	e.Varint(s.stats.Epochs)
	e.Varint(s.stats.Readings)
	e.Varint(s.stats.Events)
	e.Varint(s.stats.EventBytes)
	e.Varint(s.stats.RawBytes)

	s.dedup.EncodeState(e)
	s.graph.EncodeState(e)
	s.comp.EncodeState(e)
	return e.Flush(w)
}

// RestoreSubstrate reconstructs a substrate from a snapshot previously
// written by Snapshot. The restore is all-or-nothing: any verification or
// decode failure returns an error and no substrate, so corrupt snapshots
// can never be half-applied.
func RestoreSubstrate(r io.Reader) (*Substrate, error) {
	d, err := checkpoint.NewDecoder(r)
	if err != nil {
		return nil, err
	}
	cfg, err := decodeConfig(d)
	if err != nil {
		return nil, err
	}
	s, err := New(cfg)
	if err != nil {
		return nil, fmt.Errorf("%w: restored config rejected: %v", checkpoint.ErrCorrupt, err)
	}

	d.Section(sectionSubstrate)
	s.lastNow = d.BaseEpoch()
	s.stats.Epochs = d.Varint()
	s.stats.Readings = d.Varint()
	s.stats.Events = d.Varint()
	s.stats.EventBytes = d.Varint()
	s.stats.RawBytes = d.Varint()
	if err := d.Err(); err != nil {
		return nil, err
	}

	if err := s.dedup.DecodeState(d); err != nil {
		return nil, err
	}
	g, err := graph.DecodeState(d)
	if err != nil {
		return nil, err
	}
	s.graph = g
	switch s.cfg.Compression {
	case Level2:
		c, err := compress.DecodeLevel2(d, levelOf)
		if err != nil {
			return nil, err
		}
		s.comp = c
	default:
		c, err := compress.DecodeLevel1(d, levelOf)
		if err != nil {
			return nil, err
		}
		s.comp = c
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return s, nil
}

// LastEpoch returns the last successfully processed epoch, or
// model.EpochNone before the first. A restored substrate reports the
// epoch of its snapshot, which is what lets callers skip already-processed
// input.
func (s *Substrate) LastEpoch() model.Epoch { return s.lastNow }

// SnapshotToFile writes a snapshot to path atomically (tmp + fsync +
// rename), so a crash mid-checkpoint leaves the previous snapshot intact,
// and records its size and write latency on an instrumented substrate.
func (s *Substrate) SnapshotToFile(path string) error {
	start := time.Now()
	var written int64
	err := checkpoint.WriteFileAtomic(path, func(w io.Writer) error {
		cw := &checkpoint.CountingWriter{W: w}
		err := s.Snapshot(cw)
		written = cw.N
		return err
	})
	if err == nil && s.tel != nil {
		s.tel.Ckpt.ObserveWrite(written, time.Since(start))
	}
	return err
}

// RestoreSubstrateFromFile restores a substrate from a snapshot file.
func RestoreSubstrateFromFile(path string) (*Substrate, error) {
	var s *Substrate
	err := checkpoint.ReadFile(path, func(r io.Reader) error {
		var err error
		s, err = RestoreSubstrate(r)
		return err
	})
	return s, err
}
