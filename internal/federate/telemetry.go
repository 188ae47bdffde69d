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

// CoordinatorInstruments holds the coordinator's plain metrics, the
// quantities ClusterStatus does not keep. The families that ClusterStatus
// does keep (merged totals, barrier epoch, final linger, per-zone lag,
// pending batches, link state, connects and near-misses) are read from
// it at scrape time, so a scrape and Status() never disagree. An
// uninstrumented coordinator holds noCoordinatorInstruments: every
// contained metric is nil and recording is a no-op, the same
// transparency contract as core.Instruments — the keystone byte-identity
// test pins that an instrumented cluster merges the identical stream.
type CoordinatorInstruments struct {
	BarrierWait  *telemetry.Histogram // spire_fed_barrier_wait_seconds
	LingerMissed *telemetry.Counter   // spire_fed_final_linger_missed_total

	// Per-zone families, indexed by zone ID.
	ZoneEpochs  []*telemetry.Counter // spire_fed_zone_epochs_total{zone=z}
	ZoneEvents  []*telemetry.Counter // spire_fed_zone_events_total{zone=z}
	ZoneRxBytes []*telemetry.Counter // spire_fed_zone_rx_bytes_total{zone=z}
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
	c.tel = &noCoordinatorInstruments
	if reg == nil {
		return nil
	}
	status := func(f func(ClusterStatus) int64) func() int64 {
		return func() int64 { return f(c.Status()) }
	}
	reg.CounterFunc("spire_fed_merged_epochs_total", "Epochs merged through the barrier.",
		status(func(st ClusterStatus) int64 { return st.MergedEpochs }))
	reg.CounterFunc("spire_fed_merged_events_total", "Events emitted by the merged stream.", c.MergedEvents)
	reg.GaugeFunc("spire_fed_barrier_epoch", "Epoch the barrier is merging or waiting for.",
		status(func(st ClusterStatus) int64 { return max(int64(st.BarrierEpoch), 0) }))
	reg.GaugeFunc("spire_fed_final_linger_ms", "Milliseconds spent waiting for final acks after the last merge.",
		func() int64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return c.linger.Milliseconds()
		})
	tel := &CoordinatorInstruments{
		BarrierWait: reg.Histogram("spire_fed_barrier_wait_seconds",
			"Time each epoch spent at the barrier, from first wanted to merged.", BackoffBuckets),
		LingerMissed: reg.Counter("spire_fed_final_linger_missed_total",
			"Zones that never received the final ack before the linger deadline."),
	}
	for z := 0; z < c.cfg.Zones; z++ {
		zl := strconv.Itoa(z)
		zone := func(f func(ZoneStatus) int64) func() int64 {
			return status(func(st ClusterStatus) int64 { return f(st.Zones[z]) })
		}
		tel.ZoneEpochs = append(tel.ZoneEpochs, reg.Counter("spire_fed_zone_epochs_total",
			"Epoch batches delivered by each zone.", "zone", zl))
		tel.ZoneEvents = append(tel.ZoneEvents, reg.Counter("spire_fed_zone_events_total",
			"Events delivered by each zone.", "zone", zl))
		tel.ZoneRxBytes = append(tel.ZoneRxBytes, reg.Counter("spire_fed_zone_rx_bytes_total",
			"Wire bytes received from each zone.", "zone", zl))
		reg.GaugeFunc("spire_fed_zone_lag_epochs", "Epochs each zone's deliveries trail the most advanced zone.",
			zone(func(zs ZoneStatus) int64 { return zs.Lag }), "zone", zl)
		reg.GaugeFunc("spire_fed_zone_pending_batches", "Delivered epochs waiting at the barrier for slower zones.",
			zone(func(zs ZoneStatus) int64 { return int64(zs.ReplayDepth) }), "zone", zl)
		reg.GaugeFunc("spire_fed_zone_connected", "1 while the zone's link is up.",
			zone(func(zs ZoneStatus) int64 { return b2i(zs.Connected) }), "zone", zl)
		reg.CounterFunc("spire_fed_zone_connects_total", "Completed Hello handshakes per zone (reconnects included).",
			zone(func(zs ZoneStatus) int64 { return zs.Connects }), "zone", zl)
		reg.CounterFunc("spire_fed_straggler_near_miss_total",
			"Barrier waits past the warn fraction of the straggler timeout, by missing zone.",
			zone(func(zs ZoneStatus) int64 { return zs.NearMisses }), "zone", zl)
	}
	c.tel = tel
	return tel
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// WorkerInstruments holds the zone worker's plain metrics, all labeled
// with the worker's zone. The families WorkerStatus keeps (replay depth
// and high water, ack window, ack stalls, connects, connect failures and
// backoff) are read from it at scrape time. An uninstrumented worker
// holds noWorkerInstruments (see CoordinatorInstruments).
type WorkerInstruments struct {
	EpochsSubmitted *telemetry.Counter   // spire_fed_worker_epochs_submitted_total
	EpochsAcked     *telemetry.Counter   // spire_fed_worker_epochs_acked_total
	AckRTT          *telemetry.Histogram // spire_fed_worker_ack_rtt_seconds
	Connected       *telemetry.Gauge     // spire_fed_worker_connected
	ReplayedEpochs  *telemetry.Counter   // spire_fed_worker_replayed_epochs_total
	TxBytes         *telemetry.Counter   // spire_fed_worker_tx_bytes_total
	RxBytes         *telemetry.Counter   // spire_fed_worker_rx_bytes_total
	CheckpointBytes *telemetry.Gauge     // spire_fed_worker_checkpoint_bytes
	CheckpointSecs  *telemetry.Histogram // spire_fed_worker_checkpoint_seconds
	Checkpoints     *telemetry.Counter   // spire_fed_worker_checkpoints_total
}

// noWorkerInstruments is an uninstrumented worker's bundle: every metric
// is nil, and nil metrics record nothing, so call sites stay
// unconditional.
var noWorkerInstruments WorkerInstruments

// Instrument wires the worker to a telemetry registry; a nil registry
// disables instrumentation. Call before RunBatches.
func (w *Worker) Instrument(reg *telemetry.Registry) *WorkerInstruments {
	w.tel = &noWorkerInstruments
	if reg == nil {
		return nil
	}
	zl := strconv.Itoa(int(w.cfg.Zone))
	status := func(f func(WorkerStatus) int64) func() int64 {
		return func() int64 { return f(w.Status()) }
	}
	reg.GaugeFunc("spire_fed_worker_replay_depth", "Processed epochs buffered for replay, awaiting ack.",
		status(func(st WorkerStatus) int64 { return int64(st.ReplayDepth) }), "zone", zl)
	reg.GaugeFunc("spire_fed_worker_replay_high_water", "Deepest replay buffer seen this run.",
		status(func(st WorkerStatus) int64 { return int64(st.ReplayHighWater) }), "zone", zl)
	reg.GaugeFunc("spire_fed_worker_ack_window", "Configured bound on epochs in flight past the coordinator's acks.",
		status(func(st WorkerStatus) int64 { return int64(st.AckWindow) }), "zone", zl)
	reg.CounterFunc("spire_fed_worker_ack_stalls_total", "Reconnects forced by an ack timeout.",
		status(func(st WorkerStatus) int64 { return st.AckStalls }), "zone", zl)
	reg.CounterFunc("spire_fed_worker_connects_total", "Completed Hello handshakes (reconnects included).",
		status(func(st WorkerStatus) int64 { return st.Connects }), "zone", zl)
	reg.CounterFunc("spire_fed_worker_connect_failures_total", "Failed dial or handshake attempts.",
		status(func(st WorkerStatus) int64 { return st.ConnectFailures }), "zone", zl)
	reg.GaugeFunc("spire_fed_worker_backoff_ms", "Currently scheduled reconnect backoff, jitter applied; 0 while connected.",
		status(func(st WorkerStatus) int64 { return st.BackoffMS }), "zone", zl)
	tel := &WorkerInstruments{
		EpochsSubmitted: reg.Counter("spire_fed_worker_epochs_submitted_total",
			"Epoch batches submitted to the coordinator.", "zone", zl),
		EpochsAcked: reg.Counter("spire_fed_worker_epochs_acked_total",
			"Epoch batches acked by the coordinator.", "zone", zl),
		AckRTT: reg.Histogram("spire_fed_worker_ack_rtt_seconds",
			"Submit-to-ack round trip per epoch (outages included).",
			telemetry.DefLatencyBuckets, "zone", zl),
		Connected: reg.Gauge("spire_fed_worker_connected",
			"1 while the link to the coordinator is up.", "zone", zl),
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
	w.tel = tel
	return tel
}
