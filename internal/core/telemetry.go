package core

import (
	"spire/internal/checkpoint"
	"spire/internal/compress"
	"spire/internal/dedup"
	"spire/internal/graph"
	"spire/internal/telemetry"
)

// Instruments bundles the runtime-telemetry metrics of one substrate: the
// per-stage epoch latency histograms of the pipeline of Fig. 2 plus the
// instrument sets of the state-owning packages. It is the operational
// counterpart of Stats — Stats accumulates the paper's offline experiment
// numbers inside the substrate (and is persisted in snapshots), while
// Instruments feeds a live scrape endpoint and is deliberately external to
// all persisted state.
//
// A nil *Instruments is the disabled mode: every metric inside is nil and
// every recording call a no-op. ProcessBatch additionally skips its
// clock reads entirely when the substrate is uninstrumented, so the
// disabled hot path is byte-for-byte the pre-telemetry code path.
type Instruments struct {
	// Stage latency histograms, one per pipeline stage
	// (spire_epoch_stage_seconds{stage=...}).
	StageIngest   *telemetry.Histogram // runner ingest gate
	StageDedup    *telemetry.Histogram // dedup + tombstone filtering
	StageUpdate   *telemetry.Histogram // stream-driven graph update
	StageInfer    *telemetry.Histogram // probabilistic inference pass
	StageConflict *telemetry.Histogram // conflict resolution
	StageCompress *telemetry.Histogram // compression + exit retirement

	Epochs   *telemetry.Counter
	Readings *telemetry.Counter
	Retired  *telemetry.Counter

	// Ingest accounting: readings entering ProcessBatch
	// (spire_ingest_readings_total) and the columnar bytes they occupied
	// (spire_ingest_batch_bytes).
	IngestReadings   *telemetry.Counter
	IngestBatchBytes *telemetry.Counter

	// Inference pass accounting: components swept vs skipped
	// (spire_infer_components_total{state=dirty|clean}), nodes inferred vs
	// served from the settled-slab cache
	// (spire_infer_nodes_total{state=inferred|cached}).
	InferDirty       *telemetry.Counter
	InferClean       *telemetry.Counter
	InferNodesRun    *telemetry.Counter
	InferNodesCached *telemetry.Counter

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
		StageIngest:   stageHistogram(reg, "ingest"),
		StageDedup:    stageHistogram(reg, "dedup"),
		StageUpdate:   stageHistogram(reg, "update"),
		StageInfer:    stageHistogram(reg, "inference"),
		StageConflict: stageHistogram(reg, "conflict"),
		StageCompress: stageHistogram(reg, "compress"),
		Epochs:        reg.Counter("spire_epochs_total", "Epochs processed."),
		Readings:      reg.Counter("spire_readings_total", "Raw tag readings ingested."),
		Retired:       reg.Counter("spire_objects_retired_total", "Objects retired through an exit location."),
		IngestReadings: reg.Counter("spire_ingest_readings_total",
			"Raw readings entering the batched ingest path."),
		IngestBatchBytes: reg.Counter("spire_ingest_batch_bytes",
			"Columnar bytes of epoch batches entering the batched ingest path."),
		InferDirty: reg.Counter("spire_infer_components_total",
			"Connected components handled by an inference pass, by state.", "state", "dirty"),
		InferClean: reg.Counter("spire_infer_components_total",
			"Connected components handled by an inference pass, by state.", "state", "clean"),
		InferNodesRun: reg.Counter("spire_infer_nodes_total",
			"Nodes handled by an inference pass, by state.", "state", "inferred"),
		InferNodesCached: reg.Counter("spire_infer_nodes_total",
			"Nodes handled by an inference pass, by state.", "state", "cached"),
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

// Telemetry returns the attached instruments (nil when uninstrumented).
func (s *Substrate) Telemetry() *Instruments { return s.tel }
