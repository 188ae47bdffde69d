package experiments

import (
	"spire/internal/compress"
	"spire/internal/core"
	"spire/internal/epc"
	"spire/internal/event"
	"spire/internal/graph"
	"spire/internal/inference"
	"spire/internal/metrics"
	"spire/internal/model"
	"spire/internal/sim"
	"spire/internal/smurf"
	"spire/internal/stream"
)

// runConfig describes one simulated trace fed through the substrate.
type runConfig struct {
	Sim         sim.Config
	Inference   inference.Config
	Graph       graph.Config
	Compression core.CompressionLevel

	// CollectEvents keeps the full output (and ground-truth) event
	// streams for event-based scoring.
	CollectEvents bool
}

// runOutput aggregates everything an experiment might score.
type runOutput struct {
	Acc         metrics.Accuracy
	Stats       core.Stats
	Events      []event.Event
	TruthEvents []event.Event
	Thefts      map[model.Tag]model.Epoch
	RawBytes    int64
	FinalEpoch  model.Epoch
	PeakObjects int
}

func levelOf(g model.Tag) model.Level {
	l, _ := epc.LevelOf(g)
	return l
}

func modelEpoch(v int64) model.Epoch { return model.Epoch(v) }

// run executes a full trace: simulator → substrate → metrics, maintaining
// the ground-truth level-1 stream alongside when events are collected.
func run(rc runConfig) (*runOutput, error) {
	return runWith(rc, nil)
}

// runCompleteOnly is run with the substrate told every reader is period 1,
// which makes the inference schedule complete-only (the partial-inference
// ablation's control arm); the simulator keeps the real periods.
func runCompleteOnly(rc runConfig) (*runOutput, error) {
	return runWith(rc, func(readers []model.Reader) []model.Reader {
		out := append([]model.Reader(nil), readers...)
		for i := range out {
			out[i].Period = 1
		}
		return out
	})
}

func runWith(rc runConfig, mapReaders func([]model.Reader) []model.Reader) (*runOutput, error) {
	s, err := sim.New(rc.Sim)
	if err != nil {
		return nil, err
	}
	readers := s.Readers()
	if mapReaders != nil {
		readers = mapReaders(readers)
	}
	sub, err := core.New(core.Config{
		Readers:       readers,
		Locations:     s.Locations(),
		Inference:     rc.Inference,
		Compression:   rc.Compression,
		Graph:         rc.Graph,
		KeepRawResult: true,
	})
	if err != nil {
		return nil, err
	}
	out := &runOutput{Thefts: make(map[model.Tag]model.Epoch)}
	truthComp := compress.NewLevel1(levelOf)
	entry := s.EntryLocation()
	world := s.World()
	exclude := func(g model.Tag) bool { return world.LocationOf(g) == entry }

	var b model.Batch
	for !s.Done() {
		if err := s.StepBatch(&b); err != nil {
			return nil, err
		}
		out.RawBytes += int64(b.Total()) * stream.ReadingSize
		if n := world.Len(); n > out.PeakObjects {
			out.PeakObjects = n
		}
		po, err := sub.ProcessBatch(&b)
		if err != nil {
			return nil, err
		}
		// Accuracy is scored on the raw inference verdicts, as in the
		// paper's Expts 1-4; conflict resolution only shapes the output
		// stream (Expt 7).
		out.Acc.Observe(po.RawResult, world.LocationOf, world.ParentOf, exclude)
		if rc.CollectEvents {
			out.Events = append(out.Events, po.Events...)
			tr := s.TrueResult()
			out.TruthEvents = append(out.TruthEvents, truthComp.Compress(tr)...)
			for _, g := range s.Departed() {
				out.TruthEvents = append(out.TruthEvents, truthComp.Retire(g, s.Now())...)
			}
		}
	}
	end := s.Now() + 1
	closing := sub.Close(end)
	if rc.CollectEvents {
		out.Events = append(out.Events, closing...)
		out.TruthEvents = append(out.TruthEvents, truthComp.Close(end)...)
	}
	for _, th := range s.Thefts() {
		out.Thefts[th.Case] = th.At
	}
	out.Stats = sub.Stats()
	out.FinalEpoch = s.Now()
	return out, nil
}

// runSMURF executes the SMURF baseline over the same kind of trace:
// adaptive smoothing → static-reader location inference → level-1
// compression, as the paper's comparison does.
func runSMURF(sc sim.Config, collect bool) (*runOutput, error) {
	s, err := sim.New(sc)
	if err != nil {
		return nil, err
	}
	cl, err := smurf.New(smurf.DefaultConfig(), s.Readers())
	if err != nil {
		return nil, err
	}
	comp := compress.NewLevel1(levelOf)
	truthComp := compress.NewLevel1(levelOf)
	out := &runOutput{Thefts: make(map[model.Tag]model.Epoch)}
	world := s.World()
	entry := s.EntryLocation()
	exclude := func(g model.Tag) bool { return world.LocationOf(g) == entry }

	var b model.Batch
	for !s.Done() {
		if err := s.StepBatch(&b); err != nil {
			return nil, err
		}
		out.RawBytes += int64(b.Total()) * stream.ReadingSize
		res, err := cl.ProcessBatch(&b)
		if err != nil {
			return nil, err
		}
		out.Acc.Observe(res, world.LocationOf, world.ParentOf, exclude)
		evs := comp.Compress(res)
		out.Stats.Events += int64(len(evs))
		out.Stats.EventBytes += event.StreamSize(evs)
		if collect {
			out.Events = append(out.Events, evs...)
			tr := s.TrueResult()
			out.TruthEvents = append(out.TruthEvents, truthComp.Compress(tr)...)
			for _, g := range s.Departed() {
				out.TruthEvents = append(out.TruthEvents, truthComp.Retire(g, s.Now())...)
			}
		}
	}
	end := s.Now() + 1
	closing := comp.Close(end)
	out.Stats.Events += int64(len(closing))
	out.Stats.EventBytes += event.StreamSize(closing)
	if collect {
		out.Events = append(out.Events, closing...)
		out.TruthEvents = append(out.TruthEvents, truthComp.Close(end)...)
	}
	for _, th := range s.Thefts() {
		out.Thefts[th.Case] = th.At
	}
	out.FinalEpoch = s.Now()
	return out, nil
}
