package core

import (
	"spire/internal/checkpoint"
	"spire/internal/compress"
	"spire/internal/dedup"
	"spire/internal/graph"
	"spire/internal/telemetry"
)

// Instruments bundles the runtime-telemetry metrics of one substrate: the
// per-stage epoch latency histograms of the pipeline of Fig. 2 (the
// per-stage costs of Table III) plus the instrument sets of the
// state-owning packages. Everything measured lives here, external to the
// persisted state; Stats holds only the input-determined volumes.
//
// A nil *Instruments records nothing. The stage clock runs either way, so
// instrumenting adds only the allocation-free recording calls.
type Instruments struct {
	// Stage latency histograms, one per pipeline stage
	// (spire_epoch_stage_seconds{stage=...}).
	StageDedup    *telemetry.Histogram // dedup + tombstone filtering
	StageUpdate   *telemetry.Histogram // stream-driven graph update
	StageInfer    *telemetry.Histogram // probabilistic inference pass
	StageConflict *telemetry.Histogram // conflict resolution
	StageCompress *telemetry.Histogram // compression + exit retirement

	Epochs   *telemetry.Counter
	Readings *telemetry.Counter
	Retired  *telemetry.Counter

	// IngestBatchBytes counts the columnar bytes of the batches entering
	// ProcessBatch (spire_ingest_batch_bytes).
	IngestBatchBytes *telemetry.Counter

	// Inference pass accounting: components swept vs skipped by partial
	// inference (spire_infer_components_total{state=dirty|clean}) and
	// nodes inferred (spire_infer_nodes_total{state=inferred}).
	InferDirty    *telemetry.Counter
	InferClean    *telemetry.Counter
	InferNodesRun *telemetry.Counter

	Graph *graph.Instruments
	Comp  *compress.Instruments
	Dedup *dedup.Instruments
	Ckpt  *checkpoint.Instruments
}

// stageHistogram registers one child of the shared stage-latency family.
func stageHistogram(reg *telemetry.Registry, stage string) *telemetry.Histogram {
	return reg.Histogram("spire_epoch_stage_seconds",
		"Per-epoch wall-clock latency of one pipeline stage.",
		telemetry.DefLatencyBuckets, "stage", stage)
}

// NewInstruments registers the substrate metrics on reg. Returns nil when
// reg is nil.
func NewInstruments(reg *telemetry.Registry, level CompressionLevel) *Instruments {
	if reg == nil {
		return nil
	}
	levelLabel := "1"
	if level == Level2 {
		levelLabel = "2"
	}
	return &Instruments{
		StageDedup:    stageHistogram(reg, "dedup"),
		StageUpdate:   stageHistogram(reg, "update"),
		StageInfer:    stageHistogram(reg, "inference"),
		StageConflict: stageHistogram(reg, "conflict"),
		StageCompress: stageHistogram(reg, "compress"),
		Epochs:        reg.Counter("spire_epochs_total", "Epochs processed."),
		Readings:      reg.Counter("spire_readings_total", "Raw tag readings ingested."),
		Retired:       reg.Counter("spire_objects_retired_total", "Objects retired through an exit location."),
		IngestBatchBytes: reg.Counter("spire_ingest_batch_bytes",
			"Columnar bytes of epoch batches entering the batched ingest path."),
		InferDirty: reg.Counter("spire_infer_components_total",
			"Connected components handled by an inference pass, by state.", "state", "dirty"),
		InferClean: reg.Counter("spire_infer_components_total",
			"Connected components handled by an inference pass, by state.", "state", "clean"),
		InferNodesRun: reg.Counter("spire_infer_nodes_total",
			"Nodes handled by an inference pass, by state.", "state", "inferred"),
		Graph: graph.NewInstruments(reg),
		Comp:  compress.NewInstruments(reg, levelLabel),
		Dedup: dedup.NewInstruments(reg),
		Ckpt:  checkpoint.NewInstruments(reg),
	}
}

// Instrument wires the substrate (and its dedup module) to a telemetry
// registry. A nil registry disables instrumentation; the call is cheap and
// may be repeated (e.g. after a restore, which builds a fresh substrate).
// Instrumentation is observation-only: the transparency tests pin that an
// instrumented run produces byte-identical output streams and snapshots.
func (s *Substrate) Instrument(reg *telemetry.Registry) *Instruments {
	s.tel = NewInstruments(reg, s.cfg.Compression)
	if s.tel == nil {
		s.dedup.Instrument(nil)
	} else {
		s.dedup.Instrument(s.tel.Dedup)
	}
	return s.tel
}
