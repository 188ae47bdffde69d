// Package core wires SPIRE's modules into the interpretation and
// compression substrate of Fig. 2: device-level deduplication feeds the
// stream-driven graph update (data capture), a probabilistic inference
// pass estimates per-object locations and containment, conflict resolution
// reconciles the two, and an online compressor turns the interpreted state
// into the compressed output event stream.
package core

import (
	"fmt"
	"slices"
	"time"

	"spire/internal/checkpoint"
	"spire/internal/compress"
	"spire/internal/dedup"
	"spire/internal/epc"
	"spire/internal/event"
	"spire/internal/graph"
	"spire/internal/inference"
	"spire/internal/model"
	"spire/internal/stream"
	"spire/internal/trace"
)

// CompressionLevel selects the output compressor.
type CompressionLevel int

// Compression levels of Section V.
const (
	Level1 CompressionLevel = 1 // range compression
	Level2 CompressionLevel = 2 // containment-based location compression
)

// Config assembles a substrate.
type Config struct {
	// Readers is the full reader deployment; it drives reader lookup
	// during updates and the partial/complete inference schedule.
	Readers []model.Reader
	// Locations is the warehouse location table; locations marked Exit
	// retire observed objects after inference.
	Locations []model.Location

	Inference inference.Config

	// Compression selects level-1 or level-2 output (default level 1).
	Compression CompressionLevel

	// KeepRawResult additionally exposes the inference result *before*
	// conflict resolution in EpochOutput.RawResult. The paper's accuracy
	// experiments (Expts 1-4) score raw inference; only the output-stream
	// experiment includes conflict resolution.
	KeepRawResult bool
}

// Stats accumulates the substrate's input and output volumes. Like all
// persisted state it depends on the input alone; Table III's per-stage
// costs are measured by the Instruments' stage histograms.
type Stats struct {
	Epochs     int64
	Readings   int64
	Events     int64
	EventBytes int64
	RawBytes   int64
}

// EpochOutput is the result of processing one epoch.
type EpochOutput struct {
	// Epoch is the epoch the output belongs to: the batch time, or the
	// close epoch for the final output of a run.
	Epoch model.Epoch
	// Result is the (conflict-resolved) inference result.
	Result *inference.Result
	// RawResult is the result before conflict resolution; only populated
	// when Config.KeepRawResult is set.
	RawResult *inference.Result
	// Mode says whether complete or partial inference ran.
	Mode inference.Mode
	// Events is the compressed output for the epoch, including the
	// closing events of objects that exited through a proper channel.
	Events []event.Event
	// Retired lists objects removed from the graph this epoch (exit-door
	// departures, containers first).
	Retired []model.Tag
}

// Substrate is the SPIRE interpretation and compression substrate. It is
// not safe for concurrent use.
type Substrate struct {
	cfg      Config
	readers  map[model.ReaderID]*model.Reader
	exits    map[model.LocationID]bool
	dedup    *dedup.Deduplicator
	graph    *graph.Graph
	inf      *inference.Inferencer
	schedule inference.Schedule
	comp     compressor
	stats    Stats
	lastNow  model.Epoch

	// groupReaders is the reused per-epoch scratch aligning a batch's
	// reader groups with their resolved *model.Reader entries.
	groupReaders []*model.Reader

	// tel holds the optional runtime-telemetry instruments (nil when
	// disabled); see telemetry.go. Recording is observation-only and never
	// influences processing.
	tel *Instruments

	// rec holds the optional decision-provenance recorder (nil when
	// disabled); see trace.go. Like tel, it is observation-only.
	rec *trace.Recorder

	// raw is the pooled KeepRawResult copy, refilled each epoch instead of
	// allocating fresh rows; it shares the Result lifetime contract of
	// ProcessBatch.
	raw inference.Result

	// Exit-walk scratch: walked row indices, a per-row seen column, sort keys.
	exitWalk []int32
	exitSeen []bool
	exitKeys []uint64
}

// compressor is the shared surface of the two compression levels.
type compressor interface {
	Compress(*inference.Result) []event.Event
	Retire(model.Tag, model.Epoch) []event.Event
	Close(model.Epoch) []event.Event
	Opens() (locations, containments int)
	SetTracer(*trace.Recorder)
	EncodeState(*checkpoint.Encoder)
}

// New builds a substrate.
func New(cfg Config) (*Substrate, error) {
	if len(cfg.Readers) == 0 {
		return nil, fmt.Errorf("core: no readers configured")
	}
	if len(cfg.Locations) == 0 {
		return nil, fmt.Errorf("core: no locations configured")
	}
	if cfg.Compression == 0 {
		cfg.Compression = Level1
	}
	if cfg.Compression != Level1 && cfg.Compression != Level2 {
		return nil, fmt.Errorf("core: unknown compression level %d", cfg.Compression)
	}
	inf, err := inference.New(cfg.Inference)
	if err != nil {
		return nil, err
	}
	s := &Substrate{
		cfg:      cfg,
		readers:  make(map[model.ReaderID]*model.Reader, len(cfg.Readers)),
		exits:    make(map[model.LocationID]bool),
		dedup:    dedup.New(),
		graph:    graph.New(),
		inf:      inf,
		schedule: inference.NewSchedule(cfg.Readers),
		lastNow:  model.EpochNone,
	}
	for i := range cfg.Readers {
		r := &cfg.Readers[i]
		if _, dup := s.readers[r.ID]; dup {
			return nil, fmt.Errorf("core: duplicate reader ID %d", r.ID)
		}
		s.readers[r.ID] = r
	}
	for _, l := range cfg.Locations {
		if l.Exit {
			s.exits[l.ID] = true
		}
	}
	if cfg.Compression == Level2 {
		s.comp = compress.NewLevel2(levelOf)
	} else {
		s.comp = compress.NewLevel1(levelOf)
	}
	return s, nil
}

func levelOf(g model.Tag) model.Level {
	l, _ := epc.LevelOf(g)
	return l
}

// Graph exposes the time-varying graph (read-mostly; used by the memory
// experiment and by diagnostics).
func (s *Substrate) Graph() *graph.Graph { return s.graph }

// Schedule exposes the partial/complete inference schedule.
func (s *Substrate) Schedule() inference.Schedule { return s.schedule }

// InferStats returns the component/node accounting of the most recent
// inference pass.
func (s *Substrate) InferStats() inference.PassStats { return s.inf.LastStats() }

// Stats returns accumulated processing statistics.
func (s *Substrate) Stats() Stats { return s.stats }

// ProcessBatch runs the full substrate over one epoch's columnar batch:
// dedup → graph update (per reader group) → inference → conflict
// resolution → compression → exit retirement.
//
// The batch is consumed: deduplication and tombstone filtering compact
// its columns in place. The Result and RawResult in the returned output
// reuse buffers owned by the substrate: they stay valid until the next
// call. Callers that retain an epoch's results longer — or ship them to
// another goroutine, as Runner does — must Clone them first.
//
// A batch with a group from an unknown reader or a tag with invalid
// level bits is rejected before any stage runs, leaving the substrate's
// state as it was except that the batch's epoch counts as consumed.
func (s *Substrate) ProcessBatch(b *model.Batch) (*EpochOutput, error) {
	if b == nil {
		return nil, fmt.Errorf("core: nil batch")
	}
	if b.Time <= s.lastNow {
		return nil, fmt.Errorf("core: epoch %d not after previous epoch %d", b.Time, s.lastNow)
	}
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	s.lastNow = b.Time
	// Resolve every group's reader and every tag's level before dedup or
	// Fig. 4 touches the batch, so a batch from an unknown reader or with
	// an unlevelled tag changes no state.
	readers := s.groupReaders[:0]
	for i := range b.Groups {
		r := s.readers[b.Groups[i].Reader]
		if r == nil {
			return nil, fmt.Errorf("core: reading from unknown reader %d", b.Groups[i].Reader)
		}
		readers = append(readers, r)
	}
	s.groupReaders = readers
	for _, g := range b.Tags {
		if _, ok := epc.LevelOf(g); !ok {
			return nil, fmt.Errorf("core: tag %d carries no valid packaging level", g)
		}
	}
	now := b.Time
	rawReadings := int64(b.Total())
	s.stats.Epochs++
	s.stats.Readings += rawReadings
	s.stats.RawBytes += rawReadings * stream.ReadingSize

	// Every recording call is observation-only: the transparency tests pin
	// that enabling telemetry or tracing changes no output byte.
	tel, rec := s.tel, s.rec
	clock := stageClock{last: time.Now()}
	if tel != nil {
		tel.IngestBatchBytes.Add(b.SizeBytes())
	}

	s.dedup.CleanBatch(b)
	resurrected := s.filterRetired(b)
	clock.dedup = clock.lap()

	if err := s.graph.UpdateBatch(b, readers); err != nil {
		return nil, err
	}
	clock.update = clock.lap()

	mode := s.schedule.ModeAt(now)
	res := s.inf.Infer(s.graph, now, mode)
	var raw *inference.Result
	if s.cfg.KeepRawResult {
		raw = &s.raw
		res.CopyTo(raw)
	}
	clock.infer = clock.lap()
	conflicts := inference.ResolveConflicts(res, levelOf, rec)
	clock.conflict = clock.lap()

	out := &EpochOutput{Epoch: now, Result: res, RawResult: raw, Mode: mode}
	out.Events = s.comp.Compress(res)

	// Exit handling (§IV-C graph pruning): objects observed at an exit
	// location this epoch left the world properly; they are retired
	// together with everything they (reportedly) contain, containers
	// first.
	retired := s.exitSet(res)
	for _, g := range retired {
		if rec.Traces(g) {
			v, _ := res.Lookup(g)
			rec.Record(trace.Record{
				Epoch: now, Tag: g, Mech: trace.MechRetired, Loc: v.Location,
			})
		}
		out.Events = append(out.Events, s.comp.Retire(g, now)...)
		s.graph.RemoveNode(g)
		s.dedup.Retire(g)
	}
	out.Retired = retired

	evBytes := event.StreamSize(out.Events)
	s.stats.Events += int64(len(out.Events))
	s.stats.EventBytes += evBytes
	clock.compress = clock.lap()

	if tel != nil {
		tel.StageDedup.Observe(clock.dedup.Seconds())
		tel.StageUpdate.Observe(clock.update.Seconds())
		tel.StageInfer.Observe(clock.infer.Seconds())
		tel.StageConflict.Observe(clock.conflict.Seconds())
		tel.StageCompress.Observe(clock.compress.Seconds())
		tel.Epochs.Inc()
		tel.Readings.Add(rawReadings)
		tel.Retired.Add(int64(len(retired)))
		ist := s.inf.LastStats()
		tel.InferDirty.Add(int64(ist.DirtyComponents))
		tel.InferClean.Add(int64(ist.CleanComponents))
		tel.InferNodesRun.Add(int64(ist.NodesInferred))
		tel.Graph.Record(s.graph)
		openLocs, openConts := s.comp.Opens()
		tel.Comp.Record(openLocs, openConts, len(out.Events), evBytes)
	}
	if rec != nil {
		gst := s.graph.LastStats()
		rec.EndEpoch(trace.Span{
			Epoch: now, Partial: res.Partial,
			Readings: rawReadings, Events: int64(len(out.Events)), Bytes: evBytes, Retired: int64(len(retired)),
			DedupNS: clock.dedup.Nanoseconds(), UpdateNS: clock.update.Nanoseconds(), InferNS: clock.infer.Nanoseconds(),
			ConflictNS: clock.conflict.Nanoseconds(), CompressNS: clock.compress.Nanoseconds(),
			Conflicts: conflicts, EdgesCreated: gst.EdgesCreated, Confirmations: gst.Confirmations,
			EdgesDropped: gst.EdgesDropped + int64(s.inf.LastStats().EdgesPruned), Resurrections: resurrected,
		})
	}
	return out, nil
}

// stageClock times one epoch's pipeline stages. ProcessBatch reads the
// clock once at the start and once at each stage boundary, six reads an
// epoch whether or not anything observes it, and fills the stage
// histograms and the flight span from these laps.
type stageClock struct {
	last                                     time.Time
	dedup, update, infer, conflict, compress time.Duration
}

// lap returns the time since the previous boundary and starts the next
// stage.
func (c *stageClock) lap() time.Duration {
	now := time.Now()
	d := now.Sub(c.last)
	c.last = now
	return d
}

// filterRetired compacts the tag column in place. A tag retired through
// an exit is often still within the exit reader's range for a few more
// epochs, so an exit reader's reading of it is a residual and is dropped —
// that keeps departed objects from flapping back into the graph as
// ghosts. A reading by any *other* reader, though, is evidence the
// retirement was wrong (e.g. a case whose stale containment made it look
// like it left inside a departing pallet, when it was really missed on
// the receiving belt): the tag is resurrected and processed normally.
// Dedup has already picked each tag's reader, and its directory carries
// the retired mark of every kept reading. Without exit locations no tag
// is ever retired. It returns the number of tags resurrected.
func (s *Substrate) filterRetired(b *model.Batch) (resurrected int64) {
	if len(s.exits) == 0 {
		return 0
	}
	w := int32(0)
	for i := range b.Groups {
		gr := &b.Groups[i]
		reader, known := s.readers[gr.Reader]
		atExit := known && s.exits[reader.Location]
		start := w
		for p := gr.Start; p < gr.End; p++ {
			g := b.Tags[p]
			if s.dedup.RetiredAt(p) {
				if atExit {
					continue // residual reading of a departed object
				}
				s.dedup.ResurrectAt(p) // wrongly retired
				resurrected++
				if s.rec.Traces(g) {
					s.rec.Record(trace.Record{
						Epoch: b.Time, Tag: g, Mech: trace.MechResurrected,
						Loc: model.LocationNone, Reader: gr.Reader,
					})
				}
			}
			b.Tags[w] = g
			w++
		}
		gr.Start, gr.End = start, w
	}
	b.Tags = b.Tags[:w]
	return resurrected
}

// exitSet collects the objects retiring this epoch: those observed at an
// exit location plus, transitively, the objects whose chosen container is
// retiring. Sorted containers-first (level descending, then tag). The walk
// runs over the result's rows, finding a container's contents in the
// lists Table I built, less the children rule II detached since; only the
// returned slice is allocated.
func (s *Substrate) exitSet(res *inference.Result) []model.Tag {
	if len(s.exits) == 0 {
		return nil
	}
	rows := res.Rows()
	walk := s.exitWalk[:0]
	for i, v := range rows {
		if v.Observed && s.exits[v.Location] {
			walk = append(walk, int32(i))
		}
	}
	if len(walk) == 0 {
		return nil
	}
	seen := slices.Grow(s.exitSeen[:0], len(rows))[:len(rows)]
	clear(seen)
	for _, i := range walk {
		seen[i] = true
	}
	for k := 0; k < len(walk); k++ {
		g := rows[walk[k]].Tag
		res.Contents(int(walk[k]), func(c int) {
			if !seen[c] && rows[c].Parent == g {
				seen[c] = true
				walk = append(walk, int32(c))
			}
		})
	}
	// Containers (higher levels) first, then tag (row) order: one sort.
	keys := s.exitKeys[:0]
	for _, i := range walk {
		keys = append(keys, uint64(^levelOf(rows[i].Tag))<<32|uint64(i))
	}
	slices.Sort(keys)
	s.exitWalk, s.exitSeen, s.exitKeys = walk, seen, keys
	out := make([]model.Tag, len(keys))
	for k, key := range keys {
		out[k] = rows[uint32(key)].Tag
	}
	return out
}

// Close ends all open pairs at epoch now, producing the closing events of
// a finished run.
func (s *Substrate) Close(now model.Epoch) []event.Event {
	evs := s.comp.Close(now)
	s.stats.Events += int64(len(evs))
	s.stats.EventBytes += event.StreamSize(evs)
	return evs
}
