package federate

import (
	"fmt"
	"slices"
	"time"

	"spire/internal/model"
)

// ZoneState is one zone's position in the cluster lifecycle, as either
// side of the link sees it.
//
// Coordinator view: a zone is connecting until its first completed
// Hello handshake, streaming while a live link exists, lost while
// disconnected after having connected, and finished once its Fin batch
// has been delivered (a finished zone stays finished even if its link
// drops before the final ack reaches it — delivery is complete).
//
// Worker view: connecting while dialing (initially and between
// retries), streaming while the link is up, lost after a drop until the
// redial succeeds, and finished when RunBatches has returned successfully.
type ZoneState string

const (
	ZoneConnecting ZoneState = "connecting"
	ZoneStreaming  ZoneState = "streaming"
	ZoneFinished   ZoneState = "finished"
	ZoneLost       ZoneState = "lost"
)

// ZoneStatus is the coordinator's live view of one zone.
type ZoneStatus struct {
	Zone  int       `json:"zone"`
	State ZoneState `json:"state"`
	// Connected reports a live link right now (streaming implies true).
	Connected bool `json:"connected"`
	// LastEpoch is the highest epoch the zone has delivered
	// (model.EpochNone, -1, before the first batch).
	LastEpoch model.Epoch `json:"last_epoch"`
	// Acked is the highest epoch merged and acked back to the zone.
	Acked model.Epoch `json:"acked"`
	// Lag is how many epochs this zone's deliveries trail the most
	// advanced zone's — the "which zone is holding the barrier" number.
	Lag int64 `json:"lag"`
	// ReplayDepth counts epochs the zone has delivered that the barrier
	// has not merged yet (they sit in the coordinator's replay window
	// waiting for slower zones).
	ReplayDepth int `json:"replay_depth"`
	// Connects counts completed Hello handshakes (reconnects included).
	Connects int64 `json:"connects"`
	// NearMisses counts barrier waits that crossed the warn fraction of
	// the straggler timeout while this zone was among the missing.
	NearMisses int64 `json:"near_misses"`
	// SecondsSinceDelivery is the age of the zone's last delivered
	// batch; zero until the first delivery.
	SecondsSinceDelivery float64 `json:"seconds_since_delivery,omitempty"`
}

// ClusterStatus is a point-in-time snapshot of the whole cluster as the
// coordinator sees it — the payload of GET /v1/cluster.
type ClusterStatus struct {
	Zones []ZoneStatus `json:"zones"`
	// BarrierEpoch is the epoch the barrier is merging or waiting for
	// (model.EpochNone until the first batch arrives).
	BarrierEpoch model.Epoch `json:"barrier_epoch"`
	MergedEpochs int64       `json:"merged_epochs"`
	MergedEvents int64       `json:"merged_events"`
	// FinalEpoch is the final merged epoch once known (EpochNone before).
	FinalEpoch model.Epoch `json:"final_epoch"`
	// Done reports that the final epoch has been merged.
	Done bool `json:"done"`
	// NearMisses totals barrier waits that crossed the warn fraction of
	// the straggler timeout without (yet) tripping it.
	NearMisses        int64   `json:"near_misses"`
	StragglerTimeoutS float64 `json:"straggler_timeout_s"`
	// FinalLingerS is how long the coordinator waited after the final
	// merge for every zone to receive its final ack (zero until then).
	FinalLingerS float64 `json:"final_linger_s,omitempty"`
}

// Status assembles the coordinator's live cluster snapshot. It is safe
// to call concurrently with Serve (an HTTP handler polls it while the
// merge loop runs) and never blocks the merge loop for longer than the
// state copy.
func (c *Coordinator) Status() ClusterStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	st := ClusterStatus{
		Zones:             make([]ZoneStatus, len(c.zones)),
		BarrierEpoch:      c.barrier,
		MergedEpochs:      c.mergedEpochs,
		MergedEvents:      c.events,
		FinalEpoch:        c.final,
		Done:              c.final != model.EpochNone,
		NearMisses:        c.nearMisses,
		StragglerTimeoutS: c.cfg.StragglerTimeout.Seconds(),
		FinalLingerS:      c.linger.Seconds(),
	}
	leader := model.EpochNone
	for _, zc := range c.zones {
		if zc.highest > leader {
			leader = zc.highest
		}
	}
	for z, zc := range c.zones {
		zs := ZoneStatus{
			Zone:        z,
			LastEpoch:   zc.highest,
			Acked:       zc.acked,
			ReplayDepth: len(zc.batches),
			NearMisses:  zc.nearMisses,
		}
		if zc.highest != model.EpochNone && leader > zc.highest {
			zs.Lag = int64(leader - zc.highest)
		} else if zc.highest == model.EpochNone && leader != model.EpochNone {
			zs.Lag = int64(leader) + 1 // never delivered: behind by the whole stream
		}
		if !zc.lastDelivery.IsZero() {
			zs.SecondsSinceDelivery = now.Sub(zc.lastDelivery).Seconds()
		}
		zc.mu.Lock()
		zs.Connected = zc.conn != nil
		ever := zc.everConnected
		zs.Connects = zc.connects
		zc.mu.Unlock()
		switch {
		case zc.fin:
			zs.State = ZoneFinished
		case zs.Connected:
			zs.State = ZoneStreaming
		case ever:
			zs.State = ZoneLost
		default:
			zs.State = ZoneConnecting
		}
		st.Zones[z] = zs
	}
	return st
}

// Ready implements the coordinator's readiness probe: nil once every
// zone has completed its Hello handshake at least once, else an error
// naming the zones still awaited.
func (c *Coordinator) Ready() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var waiting []int
	for z, zc := range c.zones {
		zc.mu.Lock()
		ever := zc.everConnected
		zc.mu.Unlock()
		if !ever {
			waiting = append(waiting, z)
		}
	}
	if len(waiting) == 0 {
		return nil
	}
	slices.Sort(waiting)
	return fmt.Errorf("zones %v have not said hello", waiting)
}

// WorkerStatus is the zone worker's live view of its own link — the
// payload of GET /v1/cluster on a spirezone process.
type WorkerStatus struct {
	Zone  int       `json:"zone"`
	State ZoneState `json:"state"`
	// LastProcessed is the highest epoch the substrate has interpreted.
	LastProcessed model.Epoch `json:"last_processed"`
	// LastAcked is the coordinator's ack high-water mark.
	LastAcked model.Epoch `json:"last_acked"`
	// ReplayDepth is the number of processed, un-acked epochs held for
	// replay; ReplayHighWater is the run's deepest buffer.
	ReplayDepth     int `json:"replay_depth"`
	ReplayHighWater int `json:"replay_high_water"`
	// AckWindow is the configured bound on ReplayDepth.
	AckWindow int `json:"ack_window"`
	// Connects counts completed handshakes; ConnectFailures counts
	// failed dial or handshake attempts.
	Connects        int64 `json:"connects"`
	ConnectFailures int64 `json:"connect_failures"`
	// BackoffMS is the currently scheduled reconnect backoff (with
	// jitter applied); zero while connected.
	BackoffMS int64 `json:"backoff_ms"`
	// AckStalls counts ack-timeout reconnects.
	AckStalls int64 `json:"ack_stalls"`
	// CheckpointEpoch is the epoch of the last checkpoint persisted to
	// disk (EpochNone before the first).
	CheckpointEpoch model.Epoch `json:"checkpoint_epoch"`
}

// Status returns the worker's live status. Safe to call concurrently
// with RunBatches.
func (w *Worker) Status() WorkerStatus {
	w.statusMu.Lock()
	defer w.statusMu.Unlock()
	return w.status
}

// Ready implements the worker's readiness probe: nil while the link to
// the coordinator is up (or the run has finished), else an error
// describing the link state.
func (w *Worker) Ready() error {
	st := w.Status()
	switch st.State {
	case ZoneStreaming, ZoneFinished:
		return nil
	}
	return fmt.Errorf("zone %d %s (connects %d, failures %d)",
		st.Zone, st.State, st.Connects, st.ConnectFailures)
}

// setStatus applies a mutation to the worker's status under its lock.
func (w *Worker) setStatus(f func(*WorkerStatus)) {
	w.statusMu.Lock()
	f(&w.status)
	w.statusMu.Unlock()
}
