package federate

import (
	"strconv"

	"spire/internal/telemetry"
)

// BackoffBuckets spans the worker's reconnect-backoff and barrier-wait
// range: 1ms (the jittered floor of a 50ms base within one RTT) out to
// 60s (a straggler budget's worth of barrier silence).
var BackoffBuckets = []float64{
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	1e-1, 2.5e-1, 5e-1,
	1, 2.5, 5, 10, 30, 60,
}

// CoordinatorInstruments bundles the coordinator-side cluster metrics.
// An uninstrumented coordinator holds noCoordinatorInstruments: every
// contained metric is nil and recording is a no-op, the same transparency
// contract as core.Instruments — the keystone byte-identity test pins
// that an instrumented cluster merges the identical stream.
type CoordinatorInstruments struct {
	MergedEpochs *telemetry.Counter   // spire_fed_merged_epochs_total
	MergedEvents *telemetry.Counter   // spire_fed_merged_events_total
	BarrierWait  *telemetry.Histogram // spire_fed_barrier_wait_seconds
	BarrierEpoch *telemetry.Gauge     // spire_fed_barrier_epoch
	LingerMS     *telemetry.Gauge     // spire_fed_final_linger_ms
	LingerMissed *telemetry.Counter   // spire_fed_final_linger_missed_total

	// Per-zone families, indexed by zone ID.
	ZoneEpochs    []*telemetry.Counter // spire_fed_zone_epochs_total{zone=z}
	ZoneEvents    []*telemetry.Counter // spire_fed_zone_events_total{zone=z}
	ZoneRxBytes   []*telemetry.Counter // spire_fed_zone_rx_bytes_total{zone=z}
	ZoneLag       []*telemetry.Gauge   // spire_fed_zone_lag_epochs{zone=z}
	ZonePending   []*telemetry.Gauge   // spire_fed_zone_pending_batches{zone=z}
	ZoneConnected []*telemetry.Gauge   // spire_fed_zone_connected{zone=z}
	ZoneConnects  []*telemetry.Counter // spire_fed_zone_connects_total{zone=z}
	NearMisses    []*telemetry.Counter // spire_fed_straggler_near_miss_total{zone=z}
}

// NewCoordinatorInstruments registers the coordinator metrics for a
// cluster of zones workers on reg. Returns nil when reg is nil.
func NewCoordinatorInstruments(reg *telemetry.Registry, zones int) *CoordinatorInstruments {
	if reg == nil {
		return nil
	}
	ci := &CoordinatorInstruments{
		MergedEpochs: reg.Counter("spire_fed_merged_epochs_total", "Epochs merged through the barrier."),
		MergedEvents: reg.Counter("spire_fed_merged_events_total", "Events emitted by the merged stream."),
		BarrierWait: reg.Histogram("spire_fed_barrier_wait_seconds",
			"Time each epoch spent at the barrier, from first wanted to merged.", BackoffBuckets),
		BarrierEpoch: reg.Gauge("spire_fed_barrier_epoch", "Epoch the barrier is merging or waiting for."),
		LingerMS: reg.Gauge("spire_fed_final_linger_ms",
			"Milliseconds spent waiting for final acks after the last merge."),
		LingerMissed: reg.Counter("spire_fed_final_linger_missed_total",
			"Zones that never received the final ack before the linger deadline."),
	}
	for z := 0; z < zones; z++ {
		zl := strconv.Itoa(z)
		ci.ZoneEpochs = append(ci.ZoneEpochs, reg.Counter("spire_fed_zone_epochs_total",
			"Epoch batches delivered by each zone.", "zone", zl))
		ci.ZoneEvents = append(ci.ZoneEvents, reg.Counter("spire_fed_zone_events_total",
			"Events delivered by each zone.", "zone", zl))
		ci.ZoneRxBytes = append(ci.ZoneRxBytes, reg.Counter("spire_fed_zone_rx_bytes_total",
			"Wire bytes received from each zone.", "zone", zl))
		ci.ZoneLag = append(ci.ZoneLag, reg.Gauge("spire_fed_zone_lag_epochs",
			"Epochs each zone's deliveries trail the most advanced zone.", "zone", zl))
		ci.ZonePending = append(ci.ZonePending, reg.Gauge("spire_fed_zone_pending_batches",
			"Delivered epochs waiting at the barrier for slower zones.", "zone", zl))
		ci.ZoneConnected = append(ci.ZoneConnected, reg.Gauge("spire_fed_zone_connected",
			"1 while the zone's link is up.", "zone", zl))
		ci.ZoneConnects = append(ci.ZoneConnects, reg.Counter("spire_fed_zone_connects_total",
			"Completed Hello handshakes per zone (reconnects included).", "zone", zl))
		ci.NearMisses = append(ci.NearMisses, reg.Counter("spire_fed_straggler_near_miss_total",
			"Barrier waits past the warn fraction of the straggler timeout, by missing zone.", "zone", zl))
	}
	return ci
}

// noCoordinatorInstruments is an uninstrumented coordinator's bundle:
// every metric is nil and every per-zone family empty, and nil metrics
// record nothing, so call sites stay unconditional.
var noCoordinatorInstruments CoordinatorInstruments

// zoneAt returns zone z's metric of a per-zone family, or nil (a no-op
// metric) when the family is empty or z is out of range.
func zoneAt[M any](family []*M, z int) *M {
	if z < 0 || z >= len(family) {
		return nil
	}
	return family[z]
}

// Instrument wires the coordinator to a telemetry registry; a nil
// registry disables instrumentation. Call before Serve.
func (c *Coordinator) Instrument(reg *telemetry.Registry) *CoordinatorInstruments {
	tel := NewCoordinatorInstruments(reg, c.cfg.Zones)
	c.tel = &noCoordinatorInstruments
	if tel != nil {
		c.tel = tel
	}
	return tel
}

// WorkerInstruments bundles the zone-worker-side metrics, all labeled
// with the worker's zone. An uninstrumented worker holds
// noWorkerInstruments (see CoordinatorInstruments).
type WorkerInstruments struct {
	EpochsSubmitted *telemetry.Counter   // spire_fed_worker_epochs_submitted_total
	EpochsAcked     *telemetry.Counter   // spire_fed_worker_epochs_acked_total
	AckRTT          *telemetry.Histogram // spire_fed_worker_ack_rtt_seconds
	ReplayDepth     *telemetry.Gauge     // spire_fed_worker_replay_depth
	ReplayHighWater *telemetry.Gauge     // spire_fed_worker_replay_high_water
	AckWindow       *telemetry.Gauge     // spire_fed_worker_ack_window
	AckStalls       *telemetry.Counter   // spire_fed_worker_ack_stalls_total
	Connects        *telemetry.Counter   // spire_fed_worker_connects_total
	ConnectFailures *telemetry.Counter   // spire_fed_worker_connect_failures_total
	Connected       *telemetry.Gauge     // spire_fed_worker_connected
	BackoffMS       *telemetry.Gauge     // spire_fed_worker_backoff_ms
	ReplayedEpochs  *telemetry.Counter   // spire_fed_worker_replayed_epochs_total
	TxBytes         *telemetry.Counter   // spire_fed_worker_tx_bytes_total
	RxBytes         *telemetry.Counter   // spire_fed_worker_rx_bytes_total
	CheckpointBytes *telemetry.Gauge     // spire_fed_worker_checkpoint_bytes
	CheckpointSecs  *telemetry.Histogram // spire_fed_worker_checkpoint_seconds
	Checkpoints     *telemetry.Counter   // spire_fed_worker_checkpoints_total
}

// NewWorkerInstruments registers the worker metrics for one zone on
// reg. Returns nil when reg is nil.
func NewWorkerInstruments(reg *telemetry.Registry, zone ZoneID) *WorkerInstruments {
	if reg == nil {
		return nil
	}
	zl := strconv.Itoa(int(zone))
	return &WorkerInstruments{
		EpochsSubmitted: reg.Counter("spire_fed_worker_epochs_submitted_total",
			"Epoch batches submitted to the coordinator.", "zone", zl),
		EpochsAcked: reg.Counter("spire_fed_worker_epochs_acked_total",
			"Epoch batches acked by the coordinator.", "zone", zl),
		AckRTT: reg.Histogram("spire_fed_worker_ack_rtt_seconds",
			"Submit-to-ack round trip per epoch (outages included).",
			telemetry.DefLatencyBuckets, "zone", zl),
		ReplayDepth: reg.Gauge("spire_fed_worker_replay_depth",
			"Processed epochs buffered for replay, awaiting ack.", "zone", zl),
		ReplayHighWater: reg.Gauge("spire_fed_worker_replay_high_water",
			"Deepest replay buffer seen this run.", "zone", zl),
		AckWindow: reg.Gauge("spire_fed_worker_ack_window",
			"Configured bound on epochs in flight past the coordinator's acks.", "zone", zl),
		AckStalls: reg.Counter("spire_fed_worker_ack_stalls_total",
			"Reconnects forced by an ack timeout.", "zone", zl),
		Connects: reg.Counter("spire_fed_worker_connects_total",
			"Completed Hello handshakes (reconnects included).", "zone", zl),
		ConnectFailures: reg.Counter("spire_fed_worker_connect_failures_total",
			"Failed dial or handshake attempts.", "zone", zl),
		Connected: reg.Gauge("spire_fed_worker_connected",
			"1 while the link to the coordinator is up.", "zone", zl),
		BackoffMS: reg.Gauge("spire_fed_worker_backoff_ms",
			"Currently scheduled reconnect backoff, jitter applied; 0 while connected.", "zone", zl),
		ReplayedEpochs: reg.Counter("spire_fed_worker_replayed_epochs_total",
			"Buffered epochs re-sent after a reconnect.", "zone", zl),
		TxBytes: reg.Counter("spire_fed_worker_tx_bytes_total",
			"Wire bytes written to the coordinator.", "zone", zl),
		RxBytes: reg.Counter("spire_fed_worker_rx_bytes_total",
			"Wire bytes read from the coordinator.", "zone", zl),
		CheckpointBytes: reg.Gauge("spire_fed_worker_checkpoint_bytes",
			"Size of the last persisted checkpoint.", "zone", zl),
		CheckpointSecs: reg.Histogram("spire_fed_worker_checkpoint_seconds",
			"Snapshot-capture plus persist latency per checkpoint.",
			telemetry.DefLatencyBuckets, "zone", zl),
		Checkpoints: reg.Counter("spire_fed_worker_checkpoints_total",
			"Checkpoints persisted to disk.", "zone", zl),
	}
}

// noWorkerInstruments is an uninstrumented worker's bundle: every metric
// is nil, and nil metrics record nothing, so call sites stay
// unconditional.
var noWorkerInstruments WorkerInstruments

// Instrument wires the worker to a telemetry registry; a nil registry
// disables instrumentation. Call before RunBatches.
func (w *Worker) Instrument(reg *telemetry.Registry) *WorkerInstruments {
	tel := NewWorkerInstruments(reg, w.cfg.Zone)
	w.tel = &noWorkerInstruments
	if tel != nil {
		tel.AckWindow.Set(int64(w.cfg.AckWindow))
		w.tel = tel
	}
	return tel
}
