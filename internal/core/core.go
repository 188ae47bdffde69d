// Package core wires SPIRE's modules into the interpretation and
// compression substrate of Fig. 2: device-level deduplication feeds the
// stream-driven graph update (data capture), a probabilistic inference
// pass estimates per-object locations and containment, conflict resolution
// reconciles the two, and an online compressor turns the interpreted state
// into the compressed output event stream.
package core

import (
	"cmp"
	"fmt"
	"maps"
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
	"spire/internal/query"
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

	Graph     graph.Config
	Inference inference.Config

	// Compression selects level-1 or level-2 output (default level 1).
	Compression CompressionLevel

	// WarmupLocation, when valid, marks a location (the entry door in the
	// paper's setup) whose readings only warm up the graph; objects there
	// still get verdicts, but callers typically exclude them from
	// accuracy scoring. Kept here so tools can discover it.
	WarmupLocation model.LocationID

	// KeepRawResult additionally exposes the inference result *before*
	// conflict resolution in EpochOutput.RawResult. The paper's accuracy
	// experiments (Expts 1-4) score raw inference; only the output-stream
	// experiment includes conflict resolution.
	KeepRawResult bool

	// DedupStaleness is the recency window of the deduplication tie-break
	// (see dedup.NewWithStaleness): zero selects dedup.DefaultStaleness,
	// negative disables expiry.
	DedupStaleness model.Epoch
}

// Stats accumulates the per-epoch costs reported in Table III.
type Stats struct {
	Epochs        int64
	Readings      int64
	UpdateTime    time.Duration
	InferenceTime time.Duration
	Events        int64
	EventBytes    int64
	RawBytes      int64
}

// EpochOutput is the result of processing one epoch.
type EpochOutput struct {
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
	// reader groups with resolved *model.Reader entries (nil = unknown).
	groupReaders []*model.Reader

	// tel holds the optional runtime-telemetry instruments (nil when
	// disabled); see telemetry.go. Recording is observation-only and never
	// influences processing.
	tel *Instruments

	// rec holds the optional decision-provenance recorder (nil when
	// disabled); see trace.go. Like tel, it is observation-only.
	rec *trace.Recorder

	// watch is the optional downstream event watcher (nil when disabled);
	// it receives each epoch's compressed output with epoch framing, after
	// the epoch is fully assembled. Like tel and rec it is observation-only:
	// nil keeps the pipeline byte-identical and allocation-free.
	watch *query.Watcher

	// raw is the pooled KeepRawResult copy, reset and refilled each epoch
	// instead of allocating fresh maps; it shares the Result lifetime
	// contract of ProcessBatch.
	raw inference.Result

	// tombstones are tags already retired through an exit. A retired
	// object is often still within the exit reader's range for a few more
	// epochs, so readings of tombstoned tags by exit readers are ignored —
	// that keeps departed objects from flapping back into the graph as
	// ghosts. A reading by any *other* reader, though, is evidence the
	// retirement was wrong (e.g. a case whose stale containment made it
	// look like it left inside a departing pallet, when it was really
	// missed on the receiving belt): the tag is resurrected and processed
	// normally.
	tombstones map[model.Tag]struct{}
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
	g, err := graph.New(cfg.Graph)
	if err != nil {
		return nil, err
	}
	inf, err := inference.New(cfg.Inference, g.Config().HistorySize)
	if err != nil {
		return nil, err
	}
	s := &Substrate{
		cfg:        cfg,
		readers:    make(map[model.ReaderID]*model.Reader, len(cfg.Readers)),
		exits:      make(map[model.LocationID]bool),
		dedup:      dedup.NewWithStaleness(cfg.DedupStaleness),
		graph:      g,
		inf:        inf,
		schedule:   inference.NewSchedule(cfg.Readers),
		lastNow:    model.EpochNone,
		tombstones: make(map[model.Tag]struct{}),
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

// Watch attaches a downstream event watcher. Each processed epoch is
// delivered as BeginEpoch(now) / Dispatch(events) / EndEpoch(now) after
// the epoch's output is fully assembled (including exit retirements), and
// Close's final events are framed the same way. Watching is observation-
// only: a nil watcher (the default) leaves the pipeline byte-identical
// and allocation-free, mirroring the telemetry and trace contracts.
func (s *Substrate) Watch(w *query.Watcher) { s.watch = w }

// ProcessBatch runs the full substrate over one epoch's columnar batch:
// dedup → graph update (per reader group) → inference → conflict
// resolution → compression → exit retirement.
//
// The batch is consumed: deduplication and tombstone filtering compact
// its columns in place. The Result and RawResult in the returned output
// reuse buffers owned by the substrate: they stay valid until the next
// call. Callers that retain an epoch's results longer — or ship them to
// another goroutine, as Runner does — must Clone them first.
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
	now := b.Time
	rawReadings := int64(b.Total())
	s.stats.Epochs++
	s.stats.Readings += rawReadings
	s.stats.RawBytes += rawReadings * stream.ReadingSize

	// Telemetry and trace marks. Clock reads run only when at least one
	// observer is attached (timed), and every recording call is
	// observation-only — the transparency tests pin that enabling
	// telemetry or tracing changes no output byte.
	tel, rec := s.tel, s.rec
	timed := tel != nil || rec != nil
	var mark time.Time
	if timed {
		mark = time.Now()
	}
	var span trace.Span
	if rec != nil {
		rec.BeginEpoch(now)
		span.Epoch = now
		span.Readings = rawReadings
	}
	if tel != nil {
		tel.IngestReadings.Add(rawReadings)
		tel.IngestBatchBytes.Add(b.SizeBytes())
	}

	s.dedup.CleanBatch(b)
	s.filterTombstones(b)

	if timed {
		next := time.Now()
		d := next.Sub(mark)
		if tel != nil {
			tel.StageDedup.Observe(d.Seconds())
		}
		span.DedupNS = d.Nanoseconds()
		mark = next
	}

	start := time.Now()
	readers := s.groupReaders[:0]
	for i := range b.Groups {
		readers = append(readers, s.readers[b.Groups[i].Reader])
	}
	s.groupReaders = readers
	if err := s.graph.UpdateBatch(b, readers); err != nil {
		return nil, err
	}
	for i, r := range readers {
		if r == nil {
			return nil, fmt.Errorf("core: reading from unknown reader %d", b.Groups[i].Reader)
		}
	}
	s.stats.UpdateTime += time.Since(start)
	if timed {
		next := time.Now()
		d := next.Sub(mark)
		if tel != nil {
			tel.StageUpdate.Observe(d.Seconds())
		}
		span.UpdateNS = d.Nanoseconds()
		mark = next
	}

	return s.finishEpoch(now, rawReadings, tel, rec, timed, mark, &span), nil
}

// filterTombstones compacts the tag column in place: an exit reader's
// reading of a departed tag is a residual and is dropped; any other
// reader's reading resurrects the tag (see Substrate.tombstones).
func (s *Substrate) filterTombstones(b *model.Batch) {
	if len(s.tombstones) == 0 {
		return
	}
	w := int32(0)
	for i := range b.Groups {
		gr := &b.Groups[i]
		reader, known := s.readers[gr.Reader]
		atExit := known && s.exits[reader.Location]
		start := w
		for p := gr.Start; p < gr.End; p++ {
			g := b.Tags[p]
			if _, dead := s.tombstones[g]; dead {
				if atExit {
					continue // residual reading of a departed object
				}
				delete(s.tombstones, g) // wrongly retired: resurrect
				if s.rec != nil {
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
}

// finishEpoch runs the pipeline tail — inference, conflict resolution,
// compression, and exit retirement — once the epoch's readings have been
// applied to the graph.
func (s *Substrate) finishEpoch(now model.Epoch, rawReadings int64, tel *Instruments, rec *trace.Recorder, timed bool, mark time.Time, span *trace.Span) *EpochOutput {
	start := time.Now()
	mode := s.schedule.ModeAt(now)
	res := s.inf.Infer(s.graph, now, mode)
	var raw *inference.Result
	if s.cfg.KeepRawResult {
		raw = &s.raw
		raw.Now = res.Now
		raw.Partial = res.Partial
		raw.Observed = res.Observed
		if raw.Locations == nil {
			raw.Locations = make(map[model.Tag]model.LocationID, len(res.Locations))
			raw.Parents = make(map[model.Tag]model.Tag, len(res.Parents))
		} else {
			clear(raw.Locations)
			clear(raw.Parents)
		}
		maps.Copy(raw.Locations, res.Locations)
		maps.Copy(raw.Parents, res.Parents)
	}
	if timed {
		next := time.Now()
		d := next.Sub(mark)
		if tel != nil {
			tel.StageInfer.Observe(d.Seconds())
		}
		span.InferNS = d.Nanoseconds()
		mark = next
	}
	inference.ResolveConflicts(res, levelOf, rec)
	s.stats.InferenceTime += time.Since(start)
	if timed {
		next := time.Now()
		d := next.Sub(mark)
		if tel != nil {
			tel.StageConflict.Observe(d.Seconds())
		}
		span.ConflictNS = d.Nanoseconds()
		mark = next
	}

	out := &EpochOutput{Result: res, RawResult: raw, Mode: mode}
	out.Events = s.comp.Compress(res)

	// Exit handling (§IV-C graph pruning): objects observed at an exit
	// location this epoch left the world properly; they are retired
	// together with everything they (reportedly) contain, containers
	// first.
	retired := s.exitSet(res)
	for _, g := range retired {
		if rec != nil && rec.Traces(g) {
			loc, ok := res.Locations[g]
			if !ok {
				loc = model.LocationNone
			}
			rec.Record(trace.Record{
				Epoch: now, Tag: g, Mech: trace.MechRetired, Loc: loc,
			})
		}
		out.Events = append(out.Events, s.comp.Retire(g, now)...)
		s.graph.RemoveNode(g)
		s.dedup.Forget(g)
		s.tombstones[g] = struct{}{}
	}
	out.Retired = retired

	if s.watch != nil {
		s.watch.BeginEpoch(now)
		s.watch.Dispatch(out.Events...)
		s.watch.EndEpoch(now)
	}

	evBytes := event.StreamSize(out.Events)
	s.stats.Events += int64(len(out.Events))
	s.stats.EventBytes += evBytes
	if timed {
		d := time.Since(mark)
		if tel != nil {
			tel.StageCompress.Observe(d.Seconds())
		}
		span.CompressNS = d.Nanoseconds()
	}
	if tel != nil {
		tel.Epochs.Inc()
		tel.Readings.Add(rawReadings)
		tel.Retired.Add(int64(len(retired)))
		ist := s.inf.LastStats()
		tel.InferDirty.Add(int64(ist.DirtyComponents))
		tel.InferClean.Add(int64(ist.CleanComponents))
		tel.InferNodesRun.Add(int64(ist.NodesInferred))
		tel.InferNodesCached.Add(int64(ist.NodesCached))
		tel.Graph.Record(s.graph)
		openLocs, openConts := s.comp.Opens()
		tel.Comp.Record(openLocs, openConts, len(out.Events), evBytes)
	}
	if rec != nil {
		span.Partial = res.Partial
		span.Events = int64(len(out.Events))
		span.Bytes = evBytes
		span.Retired = int64(len(retired))
		rec.EndEpoch(*span)
	}
	return out
}

// exitSet collects the objects retiring this epoch: those observed at an
// exit location plus, transitively, the objects whose chosen container is
// retiring. Sorted containers-first (level descending, then tag).
func (s *Substrate) exitSet(res *inference.Result) []model.Tag {
	if len(s.exits) == 0 {
		return nil
	}
	var seeds []model.Tag
	for g, obs := range res.Observed {
		if obs && s.exits[res.Locations[g]] {
			seeds = append(seeds, g)
		}
	}
	if len(seeds) == 0 {
		return nil
	}
	sortTags(seeds) // one deterministic order for the whole walk
	children := make(map[model.Tag][]model.Tag)
	for c, p := range res.Parents {
		if p != model.NoTag {
			children[p] = append(children[p], c)
		}
	}
	set := make(map[model.Tag]bool)
	var walk func(model.Tag)
	walk = func(g model.Tag) {
		if set[g] {
			return
		}
		set[g] = true
		for _, c := range children[g] {
			walk(c)
		}
	}
	for _, g := range seeds {
		walk(g)
	}
	out := make([]model.Tag, 0, len(set))
	for g := range set {
		out = append(out, g)
	}
	slices.SortFunc(out, func(a, b model.Tag) int {
		if la, lb := levelOf(a), levelOf(b); la != lb {
			return cmp.Compare(lb, la) // containers (higher levels) first
		}
		return cmp.Compare(a, b)
	})
	return out
}

// sortTags sorts a tag slice ascending — the one comparator shared by
// every deterministic-ordering site (retire walks, tombstone snapshots,
// impacted-tag seeds) instead of a per-call sort.Slice closure.
func sortTags(tags []model.Tag) {
	slices.Sort(tags)
}

// Close ends all open pairs at epoch now, producing the closing events of
// a finished run.
func (s *Substrate) Close(now model.Epoch) []event.Event {
	evs := s.comp.Close(now)
	if s.watch != nil {
		s.watch.BeginEpoch(now)
		s.watch.Dispatch(evs...)
		s.watch.EndEpoch(now)
	}
	s.stats.Events += int64(len(evs))
	s.stats.EventBytes += event.StreamSize(evs)
	return evs
}
