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
// cumulative state — the last processed epoch, accumulated stats,
// tombstones, dedup history, the colored graph, and the compressor's
// open intervals. RestoreSubstrate therefore needs nothing but the
// snapshot bytes, and a restored substrate continues the event stream
// byte-identically to a process that never died.
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
	readerEncSize   = 8 + 8 + 8 + 8 + 1 + 1
	locationEncSize = 8 + 8 + 1 // ID + name length prefix + exit flag
)

func encodeConfig(e *checkpoint.Encoder, cfg *Config) {
	e.Section(sectionConfig)
	e.Uint64(uint64(len(cfg.Readers)))
	for i := range cfg.Readers {
		r := &cfg.Readers[i]
		e.Int64(int64(r.ID))
		e.Int64(int64(r.Location))
		e.Int64(int64(r.Period))
		e.Float64(r.ReadRate)
		e.Bool(r.Confirming)
		e.Uint8(uint8(r.ConfirmLevel))
	}
	e.Uint64(uint64(len(cfg.Locations)))
	for i := range cfg.Locations {
		l := &cfg.Locations[i]
		e.Int64(int64(l.ID))
		e.String(l.Name)
		e.Bool(l.Exit)
	}
	e.Uint64(uint64(cfg.Graph.HistorySize))
	e.Float64(cfg.Inference.Alpha)
	e.Float64(cfg.Inference.Beta)
	e.Bool(cfg.Inference.AdaptiveBeta)
	e.Float64(cfg.Inference.Gamma)
	e.Float64(cfg.Inference.Theta)
	e.Float64(cfg.Inference.PruneThreshold)
	e.Int64(int64(cfg.Inference.PartialHops))
	e.Uint8(uint8(cfg.Compression))
	e.Int64(int64(cfg.WarmupLocation))
	e.Bool(cfg.KeepRawResult)
	e.Int64(int64(cfg.DedupStaleness))
}

func decodeConfig(d *checkpoint.Decoder) (Config, error) {
	var cfg Config
	d.Section(sectionConfig)
	nr := d.Count(readerEncSize)
	cfg.Readers = make([]model.Reader, nr)
	for i := range cfg.Readers {
		r := &cfg.Readers[i]
		r.ID = model.ReaderID(d.Int64())
		r.Location = model.LocationID(d.Int64())
		r.Period = model.Epoch(d.Int64())
		r.ReadRate = d.Float64()
		r.Confirming = d.Bool()
		r.ConfirmLevel = model.Level(d.Uint8())
	}
	nl := d.Count(locationEncSize)
	cfg.Locations = make([]model.Location, nl)
	for i := range cfg.Locations {
		l := &cfg.Locations[i]
		l.ID = model.LocationID(d.Int64())
		l.Name = d.String()
		l.Exit = d.Bool()
	}
	cfg.Graph.HistorySize = int(d.Int64())
	cfg.Inference.Alpha = d.Float64()
	cfg.Inference.Beta = d.Float64()
	cfg.Inference.AdaptiveBeta = d.Bool()
	cfg.Inference.Gamma = d.Float64()
	cfg.Inference.Theta = d.Float64()
	cfg.Inference.PruneThreshold = d.Float64()
	cfg.Inference.PartialHops = int(d.Int64())
	cfg.Compression = CompressionLevel(d.Uint8())
	cfg.WarmupLocation = model.LocationID(d.Int64())
	cfg.KeepRawResult = d.Bool()
	cfg.DedupStaleness = model.Epoch(d.Int64())
	return cfg, d.Err()
}

// Snapshot serializes the substrate's complete state to w in the
// versioned, checksummed checkpoint format. The substrate is unchanged;
// snapshots of equal state are byte-identical.
func (s *Substrate) Snapshot(w io.Writer) error {
	e := checkpoint.NewEncoder()
	encodeConfig(e, &s.cfg)

	e.Section(sectionSubstrate)
	e.Int64(int64(s.lastNow))
	e.Int64(s.stats.Epochs)
	e.Int64(s.stats.Readings)
	e.Int64(int64(s.stats.UpdateTime))
	e.Int64(int64(s.stats.InferenceTime))
	e.Int64(s.stats.Events)
	e.Int64(s.stats.EventBytes)
	e.Int64(s.stats.RawBytes)
	tombs := make([]model.Tag, 0, len(s.tombstones))
	for g := range s.tombstones {
		tombs = append(tombs, g)
	}
	sortTags(tombs)
	e.Uint64(uint64(len(tombs)))
	for _, g := range tombs {
		e.Uint64(uint64(g))
	}

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
	s.lastNow = model.Epoch(d.Int64())
	s.stats.Epochs = d.Int64()
	s.stats.Readings = d.Int64()
	s.stats.UpdateTime = time.Duration(d.Int64())
	s.stats.InferenceTime = time.Duration(d.Int64())
	s.stats.Events = d.Int64()
	s.stats.EventBytes = d.Int64()
	s.stats.RawBytes = d.Int64()
	nt := d.Count(8)
	for i := 0; i < nt; i++ {
		g := model.Tag(d.Uint64())
		if g == model.NoTag {
			return nil, fmt.Errorf("%w: tombstone %d has zero tag", checkpoint.ErrCorrupt, i)
		}
		s.tombstones[g] = struct{}{}
	}
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
	if g.Config().HistorySize != s.graph.Config().HistorySize {
		return nil, fmt.Errorf("%w: graph history size %d does not match configured %d",
			checkpoint.ErrCorrupt, g.Config().HistorySize, s.graph.Config().HistorySize)
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
// rename), so a crash mid-checkpoint leaves the previous snapshot intact.
// On an instrumented substrate the snapshot size and write latency are
// recorded; the written bytes are identical either way.
func (s *Substrate) SnapshotToFile(path string) error {
	if s.tel == nil {
		return checkpoint.WriteFileAtomic(path, s.Snapshot)
	}
	start := time.Now()
	var written int64
	err := checkpoint.WriteFileAtomic(path, func(w io.Writer) error {
		cw := &checkpoint.CountingWriter{W: w}
		err := s.Snapshot(cw)
		written = cw.N
		return err
	})
	if err == nil {
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
