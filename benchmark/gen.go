package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"

	"spire/internal/cep"
	"spire/internal/compress"
	"spire/internal/core"
	"spire/internal/epc"
	"spire/internal/event"
	"spire/internal/eventlog"
	"spire/internal/inference"
	"spire/internal/model"
	"spire/internal/sim"
	"spire/internal/stream"
)

// epochEvents is an event stream that remembers its epoch boundaries:
// epoch i's events are ev[ends[i-1]:ends[i]]. The level-2 decompressor
// must be stepped one epoch at a time, so the boundaries are part of the
// stream.
type epochEvents struct {
	ev   []event.Event
	ends []int
}

func (s *epochEvents) add(evs []event.Event) {
	s.ev = append(s.ev, evs...)
	s.ends = append(s.ends, len(s.ev))
}

func (s *epochEvents) epoch(i int) []event.Event {
	start := 0
	if i > 0 {
		start = s.ends[i-1]
	}
	return s.ev[start:s.ends[i]]
}

// trace is everything the generator hands the system under test, made
// once per run from (workload, seed) outside every timed region, plus the
// ground truth the output is scored against.
type trace struct {
	w    workload
	seed int64

	readers []model.Reader
	locs    []model.Location
	layout  cep.Layout

	// Single-substrate workloads: a checkpoint taken at the end of the
	// ramp and the lead-in + timed epochs as raw wire bytes.
	checkpoint []byte
	wire       []byte
	// The wire format cannot carry an epoch without readings, so the
	// replayable epochs are counted as they are encoded.
	leadInEpochs, timedEpochs int
	// ramp is the substrate's output over the ramp epochs: the prefix
	// every pass's output continues, needed to check the whole stream.
	ramp       epochEvents
	rampLogDir string // ramp output as an event log (serving workloads)
	// tags are the objects the ramp output mentions, ascending; readTags
	// is the seeded sample of them the read mix queries.
	tags, readTags []model.Tag

	// Cluster workloads: each zone's readers and its pre-generated
	// batches for every epoch (ramp included: a cluster cannot restore).
	zoneReaders [][]model.Reader
	zoneBatches [][]*model.Batch

	// truth is the level-1-compressed ground-truth stream of the whole
	// simulated run.
	truth []event.Event
	end   model.Epoch // last simulated epoch

	genS  float64 // simulator + encoding time
	rampS float64 // substrate time building the checkpoint
	hash  [sha256.Size]byte
}

func levelOf(g model.Tag) model.Level {
	l, _ := epc.LevelOf(g)
	return l
}

func substrateConfig(readers []model.Reader, locs []model.Location, level core.CompressionLevel) core.Config {
	return core.Config{
		Readers:     readers,
		Locations:   locs,
		Inference:   inference.DefaultConfig(),
		Compression: level,
	}
}

// truthStream accumulates the level-1 ground-truth stream alongside the
// simulator, the way experiments.run does for Fig. 11. The compressor
// leaves an object absent from a result untouched, so only the objects
// whose true state changed since the last epoch are handed to it: the
// same stream for a fraction of the sorting.
type truthStream struct {
	comp *compress.Level1
	prev map[model.Tag]truthState
	diff inference.Result
	out  []event.Event
}

type truthState struct {
	loc    model.LocationID
	parent model.Tag
}

func newTruthStream() *truthStream {
	return &truthStream{
		comp: compress.NewLevel1(levelOf),
		prev: make(map[model.Tag]truthState),
		diff: inference.Result{
			Locations: make(map[model.Tag]model.LocationID),
			Parents:   make(map[model.Tag]model.Tag),
			Observed:  map[model.Tag]bool{},
		},
	}
}

func (t *truthStream) observe(s *sim.Simulator) {
	res := s.TrueResult()
	t.diff.Now = res.Now
	clear(t.diff.Locations)
	clear(t.diff.Parents)
	for g, loc := range res.Locations {
		now := truthState{loc, res.Parents[g]}
		if was, ok := t.prev[g]; ok && was == now {
			continue
		}
		t.prev[g] = now
		t.diff.Locations[g], t.diff.Parents[g] = now.loc, now.parent
	}
	t.out = append(t.out, t.comp.Compress(&t.diff)...)
	for _, g := range s.Departed() {
		delete(t.prev, g)
		t.out = append(t.out, t.comp.Retire(g, s.Now())...)
	}
}

// scheduleSeed fixes every workload's warehouse schedule: which pallets
// arrive, where cases are shelved and for how long, what gets stolen.
// The schedule is the workload's definition; a run's seed draws the RFID
// read noise on top of it. Were the schedule drawn from the run's seed
// too, the resident population — and with it every timing — would move
// by 10-20 % from seed to seed, swamping any change under test.
const scheduleSeed = 2008

// readNoise loses readings the way the simulator does — each
// interrogation misses a tag in range with probability 1 - rate, shelf
// readers interrogate once per active epoch and the others
// NonShelfInterrogations times — but from the run's own seed.
type readNoise struct {
	rng    *rand.Rand
	detect map[model.ReaderID]float64
}

func newReadNoise(seed int64, cfg sim.Config, readers []model.Reader) *readNoise {
	n := &readNoise{rng: rand.New(rand.NewSource(seed)), detect: make(map[model.ReaderID]float64, len(readers))}
	for _, r := range readers {
		interrogations := cfg.NonShelfInterrogations
		if r.Period > 1 {
			interrogations = 1
		}
		n.detect[r.ID] = 1 - math.Pow(1-cfg.ReadRate, float64(interrogations))
	}
	return n
}

// apply drops the lost readings from b in place.
func (n *readNoise) apply(b *model.Batch) {
	kept := int32(0)
	for i := range b.Groups {
		g := &b.Groups[i]
		detect := n.detect[g.Reader]
		start := kept
		for _, tag := range b.Tags[g.Start:g.End] {
			if n.rng.Float64() < detect {
				b.Tags[kept] = tag
				kept++
			}
		}
		g.Start, g.End = start, kept
	}
	b.Tags = b.Tags[:kept]
}

// hashBatch folds one epoch's readings into the trace hash.
func hashBatch(h hash.Hash, b *model.Batch) {
	var word [8]byte
	for _, g := range b.Groups {
		binary.BigEndian.PutUint64(word[:], uint64(g.Reader)<<32|uint64(uint32(g.End)))
		h.Write(word[:])
	}
	for _, tag := range b.Tags {
		binary.BigEndian.PutUint64(word[:], uint64(tag))
		h.Write(word[:])
	}
}

// generate builds the trace for one run. tmpDir receives the ramp event
// log of serving workloads.
func generate(w workload, seed int64, tmpDir string) (*trace, error) {
	if err := w.validate(); err != nil {
		return nil, err
	}
	cfg := w.Sim
	cfg.Seed = scheduleSeed
	cfg.ReadRate = 1 // every tag in range answers; readNoise decides which readings are lost
	cfg.Duration = w.Ramp + w.LeadIn + w.Timed
	s, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	tr := &trace{w: w, seed: seed, readers: s.Readers(), locs: s.Locations(), end: cfg.Duration}
	shelfFirst, shelfLast := s.ShelfRange()
	tr.layout = cep.Layout{
		ShelfFirst: shelfFirst, ShelfLast: shelfLast,
		InboundFirst: s.EntryLocation(), InboundLast: s.EntryLocation() + 1,
		Packaging: s.PackagingLocation(),
		ColdShelf: s.ColdShelf(), ColdCompany: sim.ColdCompany,
	}
	truth := newTruthStream()
	start := time.Now()
	if w.Zones > 0 {
		err = tr.generateZones(s, truth)
	} else {
		err = tr.generateSingle(s, truth, tmpDir)
	}
	if err != nil {
		return nil, err
	}
	truth.out = append(truth.out, truth.comp.Close(tr.end+1)...)
	tr.truth = truth.out
	tr.genS = time.Since(start).Seconds() - tr.rampS
	return tr, nil
}

func (tr *trace) generateSingle(s *sim.Simulator, truth *truthStream, tmpDir string) error {
	w := tr.w
	sub, err := core.New(substrateConfig(tr.readers, tr.locs, w.Level))
	if err != nil {
		return err
	}
	noise := newReadNoise(tr.seed, w.Sim, tr.readers)
	h := sha256.New()
	var b model.Batch
	for t := model.Epoch(1); t <= w.Ramp; t++ {
		if err := s.StepBatch(&b); err != nil {
			return err
		}
		noise.apply(&b)
		hashBatch(h, &b)
		truth.observe(s)
		rampStart := time.Now()
		out, err := sub.ProcessBatch(&b)
		if err != nil {
			return fmt.Errorf("ramp epoch %d: %w", t, err)
		}
		tr.ramp.add(out.Events)
		tr.rampS += time.Since(rampStart).Seconds()
	}
	rampStart := time.Now()
	var ckpt bytes.Buffer
	if err := sub.Snapshot(&ckpt); err != nil {
		return err
	}
	tr.checkpoint = ckpt.Bytes()
	tr.rampS += time.Since(rampStart).Seconds()

	var wire bytes.Buffer
	sw := stream.NewWriter(&wire)
	for t := w.Ramp + 1; t <= tr.end; t++ {
		if err := s.StepBatch(&b); err != nil {
			return err
		}
		noise.apply(&b)
		truth.observe(s)
		if err := sw.WriteBatch(&b); err != nil {
			return err
		}
		switch {
		case b.Total() == 0:
		case t <= w.Ramp+w.LeadIn:
			tr.leadInEpochs++
		default:
			tr.timedEpochs++
		}
	}
	if err := sw.Flush(); err != nil {
		return err
	}
	tr.wire = wire.Bytes()

	// The hash covers the inputs only: the checkpoint also carries the
	// substrate's own timing statistics, which differ from run to run.
	h.Write(tr.wire)
	h.Sum(tr.hash[:0])

	if w.Serving {
		tr.rampLogDir = filepath.Join(tmpDir, "ramp-log")
		if err := os.RemoveAll(tr.rampLogDir); err != nil {
			return err
		}
		log, err := eventlog.Open(tr.rampLogDir, eventlog.Options{})
		if err != nil {
			return err
		}
		if err := log.Append(tr.ramp.ev...); err != nil {
			log.Close()
			return err
		}
		if err := log.Close(); err != nil {
			return err
		}
		seen := make(map[model.Tag]struct{})
		for _, e := range tr.ramp.ev {
			seen[e.Object] = struct{}{}
		}
		for g := range seen {
			tr.tags = append(tr.tags, g)
		}
		slices.Sort(tr.tags)
		rng := rand.New(rand.NewSource(tr.seed))
		for i := 0; i < readSample; i++ {
			tr.readTags = append(tr.readTags, tr.tags[rng.Intn(len(tr.tags))])
		}
	}
	return nil
}

// readSample is how many seeded tags the read mix rotates through.
const readSample = 64

func (tr *trace) generateZones(s *sim.Simulator, truth *truthStream) error {
	w := tr.w
	zones, err := s.PartitionZones(w.Zones)
	if err != nil {
		return err
	}
	streams, err := s.PartitionZonesBatch(w.Zones)
	if err != nil {
		return err
	}
	tr.zoneReaders = zones
	tr.zoneBatches = make([][]*model.Batch, w.Zones)
	// One noise stream per zone, so a zone's readings do not depend on
	// how many tags its neighbours had in range.
	noise := make([]*readNoise, w.Zones)
	for z := range noise {
		noise[z] = newReadNoise(tr.seed+int64(z)<<32, w.Sim, zones[z])
	}
	h := sha256.New()
	for t := model.Epoch(1); t <= tr.end; t++ {
		for z, zs := range streams {
			b, err := zs.NextBatch()
			if err != nil {
				return fmt.Errorf("zone %d epoch %d: %w", z, t, err)
			}
			b = b.Clone() // the stream reuses its batch
			noise[z].apply(b)
			tr.zoneBatches[z] = append(tr.zoneBatches[z], b)
			hashBatch(h, b)
		}
		truth.observe(s)
	}
	h.Sum(tr.hash[:0])
	return nil
}
