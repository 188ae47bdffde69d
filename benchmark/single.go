package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"spire/internal/cep"
	"spire/internal/compress"
	"spire/internal/core"
	"spire/internal/event"
	"spire/internal/eventlog"
	"spire/internal/inference"
	"spire/internal/model"
	"spire/internal/query"
	"spire/internal/stream"
	"spire/internal/telemetry"
)

// passResult is what one replay of a trace produced and measured.
type passResult struct {
	passTiming

	// out is the encoded output stream of the pass (lead-in, timed and
	// closing epochs); ends marks the byte offset after each epoch.
	out  []byte
	ends []int
	hash [sha256.Size]byte

	epochs     int   // timed epochs replayed
	readings   int64 // raw readings in the timed section
	kept       int64 // readings left after dedup and tombstone filtering
	events     int64 // output events of the timed section
	eventBytes int64 // their encoded size

	allocBytes uint64 // heap bytes allocated during the timed section
	mallocs    uint64
	gcCycles   uint32
	liveHeapMB float64 // heap the system and its sinks hold after the pass

	restoreS float64 // core.RestoreSubstrate
	replayS  float64 // eventlog.Replay into the fresh store and engine

	// Counts read off the system at the end of the pass.
	graphNodes, graphEdges int
	graphApproxMB          float64
	nodesInferred          int64
	nodesCached            int64
	openIntervals          int64
	cepMatches             int64

	// Traced passes only.
	partialMS, completeMS []float64 // inference stage time per timed epoch, by mode
	readUS                []float64 // one sample per query-store read
	fed                   *fedTrace
}

// serving is the downstream half of the serving path: durable event log,
// level-2 decompression, the query store with its readers, and the CEP
// engine with its subscriptions.
type serving struct {
	log      *eventlog.Log
	dec      *compress.Decompressor
	store    *query.Store
	engine   *cep.Engine
	matches  int64
	readTags []model.Tag
	reads    int
	sink     int // keeps read results live so the calls are not elided
}

// cepSubscriptions is the number of tag-anchored subscriptions the
// serving workload registers beside the three built-in detectors.
const cepSubscriptions = 10_000

func newServing(tr *trace, logDir string) (*serving, error) {
	log, err := eventlog.Open(logDir, eventlog.Options{SyncEvery: 0})
	if err != nil {
		return nil, err
	}
	sv := &serving{
		log:      log,
		dec:      compress.NewDecompressor(),
		store:    query.NewStore(),
		engine:   cep.NewEngine(cep.Config{}),
		readTags: tr.readTags,
	}
	count := func(cep.Match) { sv.matches++ }
	patterns := []string{
		cep.TheftPattern(120),
		cep.MisroutePattern(tr.layout, 90),
		cep.ColdChainPattern(tr.layout, 120),
	}
	for i := 0; i < cepSubscriptions; i++ {
		g := tr.tags[i%len(tr.tags)]
		if i%2 == 0 {
			patterns = append(patterns, fmt.Sprintf("SEQ(missing() & tag(%d), NOT start()) WITHIN 60", g))
		} else {
			patterns = append(patterns, fmt.Sprintf("SEQ(start() & tag(%d) & level(case), NOT end()) WITHIN 80", g))
		}
	}
	for _, p := range patterns {
		if _, err := sv.engine.SubscribeFunc(p, count); err != nil {
			log.Close()
			return nil, fmt.Errorf("subscribe %q: %w", p, err)
		}
	}
	return sv, nil
}

// replayRamp rebuilds the store and engine state from the ramp's event
// log, as a restarted serving process would.
func (sv *serving) replayRamp(dir string) error {
	var clock model.Epoch
	one := make([]event.Event, 1)
	return eventlog.Replay(dir, func(e event.Event) error {
		one[0] = e
		l1, err := sv.dec.Step(one)
		if err != nil {
			return err
		}
		for _, o := range l1 {
			t := o.Vs
			if o.Kind == event.EndLocation || o.Kind == event.EndContainment {
				t = o.Ve
			}
			clock = max(clock, t)
			one[0] = o
			sv.engine.Epoch(clock, one)
		}
		return sv.store.Feed(l1...)
	})
}

// epoch pushes one epoch's output through every sink. With a recorder
// attached each sink call becomes a span.
func (sv *serving) epoch(now model.Epoch, evs []event.Event, rec *recorder, res *passResult) error {
	var t int64
	mark := func(name string) {
		if rec != nil {
			next := rec.now()
			rec.add(name, t, next, -1, int64(now))
			t = next
		}
	}
	if rec != nil {
		t = rec.now()
	}
	if err := sv.log.Append(evs...); err != nil {
		return err
	}
	mark("eventlog.append")
	l1, err := sv.dec.Step(evs)
	if err != nil {
		return err
	}
	mark("compress.decompress")
	if err := sv.store.Feed(l1...); err != nil {
		return err
	}
	mark("query.feed")
	sv.readMix(now, rec, res)
	mark("query.read")
	sv.engine.Epoch(now, l1)
	mark("cep.dispatch")
	return nil
}

// readMix is the fixed per-epoch read load beside the writes: four point
// lookups, a container listing, two history scans and the missing set, on
// tags rotating through the seeded sample. Traced passes time each read.
func (sv *serving) readMix(now model.Epoch, rec *recorder, res *passResult) {
	for i := 0; i < 8; i++ {
		var start time.Time
		if rec != nil {
			start = time.Now()
		}
		g := sv.readTags[sv.reads%len(sv.readTags)]
		sv.reads++
		switch {
		case i < 4:
			if _, ok := sv.store.LocationAt(g, now); ok {
				sv.sink++
			}
		case i == 4:
			sv.sink += len(sv.store.ContentsAt(g, now))
		case i < 7:
			sv.sink += len(sv.store.History(g))
		default:
			sv.sink += len(sv.store.MissingAt(now))
		}
		if rec != nil {
			res.readUS = append(res.readUS, float64(time.Since(start).Nanoseconds())/1e3)
		}
	}
}

// memSnapshot holds the allocator's monotone counters at one instant.
type memSnapshot struct {
	alloc, mallocs uint64
	gcs            uint32
}

func readMem() memSnapshot {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnapshot{m.TotalAlloc, m.Mallocs, m.NumGC}
}

func (a memSnapshot) since(b memSnapshot) (alloc, mallocs uint64, gcs uint32) {
	return a.alloc - b.alloc, a.mallocs - b.mallocs, a.gcs - b.gcs
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// stageSums reads the substrate's own per-stage time totals.
type stageSums struct{ dedup, update, infer, conflict, compress float64 }

func readStages(tel *core.Instruments) stageSums {
	return stageSums{
		dedup:    tel.StageDedup.Sum(),
		update:   tel.StageUpdate.Sum(),
		infer:    tel.StageInfer.Sum(),
		conflict: tel.StageConflict.Sum(),
		compress: tel.StageCompress.Sum(),
	}
}

// The five stages inside core.ProcessBatch, in execution order, under the
// span names the ledger reports them by.
var stageNames = [...]string{"dedup.clean", "graph.update", "inference.infer", "inference.conflict", "compress.emit"}

func (a stageSums) since(b stageSums) [len(stageNames)]float64 {
	return [...]float64{a.dedup - b.dedup, a.update - b.update, a.infer - b.infer, a.conflict - b.conflict, a.compress - b.compress}
}

// replaySingle runs one pass of a single-substrate workload against a
// fresh system: restore from the ramp checkpoint, rebuild the serving
// state, replay the lead-in untimed, then the timed epochs. With rec
// non-nil the pass is traced: the substrate's own stage instruments are
// switched on and every layer call becomes a span.
func replaySingle(tr *trace, tmpDir string, rec *recorder) (*passResult, error) {
	w := tr.w
	logDir := filepath.Join(tmpDir, "pass-log")
	if err := os.RemoveAll(logDir); err != nil {
		return nil, err
	}
	res := &passResult{
		out:  make([]byte, 0, 1<<20),
		ends: make([]int, 0, tr.leadInEpochs+tr.timedEpochs+1),
	}
	res.LatMS = make([]float64, 0, tr.timedEpochs)
	heapBefore := liveHeapMB()
	if rec != nil {
		rec.start()
	}

	// Set-up: everything the system does before the first timed epoch.
	setupStart := time.Now()
	sub, err := core.RestoreSubstrate(bytes.NewReader(tr.checkpoint))
	if err != nil {
		return nil, fmt.Errorf("restore: %w", err)
	}
	res.restoreS = time.Since(setupStart).Seconds()
	var tel *core.Instruments
	if rec != nil {
		tel = sub.Instrument(telemetry.NewRegistry())
		rec.add("checkpoint.restore", 0, rec.now(), -1, -1)
	}
	var sv *serving
	if w.Serving {
		if sv, err = newServing(tr, logDir); err != nil {
			return nil, err
		}
		defer sv.log.Close() // closed and checked below on the success path
		replayStart := time.Now()
		if err := sv.replayRamp(tr.rampLogDir); err != nil {
			return nil, fmt.Errorf("replay ramp log: %w", err)
		}
		res.replayS = time.Since(replayStart).Seconds()
		if rec != nil {
			end := rec.now()
			rec.add("eventlog.replay", end-int64(res.replayS*1e9), end, -1, -1)
		}
	}
	var leadStart int64
	if rec != nil {
		leadStart = rec.now()
	}

	br := stream.NewBatchReader(bytes.NewReader(tr.wire))
	var b model.Batch
	// epoch runs one epoch end to end: decode, interpret, encode, sinks.
	epoch := func(timed bool) error {
		traced := timed && rec != nil
		var t0, t1 int64
		if traced {
			t0 = rec.now()
		}
		if err := br.ReadBatch(&b); err != nil {
			return fmt.Errorf("decode: %w", err)
		}
		now := b.Time
		raw := int64(b.Total())
		var before stageSums
		if traced {
			t1 = rec.now()
			rec.add("stream.decode", t0, t1, -1, int64(now))
			before = readStages(tel)
		}
		out, err := sub.ProcessBatch(&b)
		if err != nil {
			return fmt.Errorf("epoch %d: %w", now, err)
		}
		if traced {
			t2 := rec.now()
			parent := rec.add("core.process", t1, t2, -1, int64(now))
			at := t1
			stages := readStages(tel).since(before)
			for i, name := range stageNames {
				d := int64(stages[i] * 1e9)
				rec.add(name, at, at+d, parent, int64(now))
				at += d
			}
			inferMS := stages[2] * 1e3
			if out.Mode == inference.Partial {
				res.partialMS = append(res.partialMS, inferMS)
			} else {
				res.completeMS = append(res.completeMS, inferMS)
			}
			t1 = t2
		}
		start := len(res.out)
		for _, e := range out.Events {
			if res.out, err = event.Append(res.out, e); err != nil {
				return fmt.Errorf("epoch %d: encode: %w", now, err)
			}
		}
		res.ends = append(res.ends, len(res.out))
		if traced {
			t2 := rec.now()
			rec.add("event.encode", t1, t2, -1, int64(now))
		}
		if sv != nil {
			var r *recorder
			if traced {
				r = rec
			}
			if err := sv.epoch(now, out.Events, r, res); err != nil {
				return fmt.Errorf("epoch %d: sinks: %w", now, err)
			}
		}
		if timed {
			res.readings += raw
			res.kept += int64(b.Total())
			res.events += int64(len(out.Events))
			res.eventBytes += int64(len(res.out) - start)
			st := sub.InferStats()
			res.nodesInferred += int64(st.NodesInferred)
			res.nodesCached += int64(st.NodesCached)
		}
		return nil
	}

	for i := 0; i < tr.leadInEpochs; i++ {
		if err := epoch(false); err != nil {
			return nil, err
		}
	}
	if rec != nil {
		rec.add("setup.lead_in", leadStart, rec.now(), -1, -1)
	}
	res.SetupS = time.Since(setupStart).Seconds()

	mem0 := readMem()
	wallStart := time.Now()
	if rec != nil {
		rec.timedFrom = rec.now()
	}
	segStart := wallStart
	for i := 0; i < tr.timedEpochs; i++ {
		t0 := time.Now()
		if err := epoch(true); err != nil {
			return nil, err
		}
		t1 := time.Now()
		res.LatMS = append(res.LatMS, float64(t1.Sub(t0).Nanoseconds())/1e6)
		if (i+1)%segmentEpochs == 0 || i+1 == tr.timedEpochs {
			res.SegS = append(res.SegS, t1.Sub(segStart).Seconds())
			segStart = t1
		}
	}
	res.WallS = segStart.Sub(wallStart).Seconds()
	res.allocBytes, res.mallocs, res.gcCycles = readMem().since(mem0)
	res.epochs = tr.timedEpochs
	// The heap the system holds in steady state, before closing the
	// stream empties the compressor.
	res.liveHeapMB = liveHeapMB() - heapBefore

	// Closing events end the stream; they are output, but not timed.
	closing := sub.Close(sub.LastEpoch() + 1)
	for _, e := range closing {
		if res.out, err = event.Append(res.out, e); err != nil {
			return nil, fmt.Errorf("encode closing: %w", err)
		}
	}
	res.ends = append(res.ends, len(res.out))
	if sv != nil {
		if err := sv.epoch(sub.LastEpoch()+1, closing, nil, res); err != nil {
			return nil, fmt.Errorf("closing: sinks: %w", err)
		}
		if err := sv.log.Close(); err != nil {
			return nil, fmt.Errorf("close event log: %w", err)
		}
		res.cepMatches = sv.matches
	}
	res.hash = sha256.Sum256(res.out)

	g := sub.Graph()
	res.graphNodes, res.graphEdges = g.Len(), g.EdgeCount()
	res.graphApproxMB = float64(g.ApproxBytes()) / (1 << 20)
	if tel != nil {
		res.openIntervals = tel.Comp.OpenLocations.Value() + tel.Comp.OpenContainments.Value()
	}
	return res, nil
}
