package trace

import (
	"sync"
	"time"

	"spire/internal/model"
	"spire/internal/ring"
)

// ConnEventKind labels one entry of the federate connection flight
// recorder. Worker-side kinds cover the life of a zone link; the
// coordinator records barrier stalls and their resolution.
type ConnEventKind string

const (
	ConnConnect       ConnEventKind = "connect"           // handshake completed
	ConnConnectFailed ConnEventKind = "connect-failed"    // dial or handshake failed
	ConnLost          ConnEventKind = "lost"              // live link dropped
	ConnReplay        ConnEventKind = "replay"            // buffered epochs re-sent after reconnect
	ConnAckStall      ConnEventKind = "ack-stall"         // no ack within the ack timeout
	ConnCheckpoint    ConnEventKind = "checkpoint"        // checkpoint persisted
	ConnNearMiss      ConnEventKind = "barrier-near-miss" // barrier wait crossed the warn fraction
	ConnBarrierStall  ConnEventKind = "barrier-stall"     // barrier wait hit the fatal timeout
	ConnFinalLinger   ConnEventKind = "final-linger"      // coordinator waited for final acks
)

// ConnEvent is one timestamped entry of the federate flight recorder:
// a connection transition, a replay, or a barrier stall. Unlike the
// epoch flight recorder (Span), these are wall-clock events — they
// describe the unreliable network edge of the deployment, not the
// deterministic pipeline, so recording real time does not perturb any
// pinned output.
type ConnEvent struct {
	Wall   time.Time     `json:"wall"`
	Kind   ConnEventKind `json:"kind"`
	Zone   int           `json:"zone"`
	Epoch  model.Epoch   `json:"epoch,omitempty"`
	Detail string        `json:"detail,omitempty"`
	// DurationMS is the event's associated wait or work time, when one
	// exists (backoff slept, barrier waited, replay took).
	DurationMS float64 `json:"duration_ms,omitempty"`
}

// ConnRecorder is a bounded, overwrite-oldest ring of ConnEvents shared
// by the federate worker and coordinator. All methods are safe for
// concurrent use and are no-ops on a nil receiver — the same
// transparency contract as the telemetry registry and the epoch
// recorder: instrumented code records unconditionally, and whether a
// recorder is attached is decided once at wiring time.
type ConnRecorder struct {
	mu     sync.Mutex
	events ring.Ring[ConnEvent]
}

// NewConnRecorder returns a recorder retaining the most recent capacity
// events (default 256 when capacity <= 0).
func NewConnRecorder(capacity int) *ConnRecorder {
	if capacity <= 0 {
		capacity = 256
	}
	return &ConnRecorder{events: ring.New[ConnEvent](capacity)}
}

// Record appends one event, stamping Wall with the current time when the
// caller left it zero. Oldest events are overwritten once the ring is
// full. No-op on a nil receiver.
func (r *ConnRecorder) Record(e ConnEvent) {
	if r == nil {
		return
	}
	if e.Wall.IsZero() {
		e.Wall = time.Now()
	}
	r.mu.Lock()
	r.events.Push(e)
	r.mu.Unlock()
}

// Events returns the retained events, oldest first. Nil on a nil
// receiver.
func (r *ConnRecorder) Events() []ConnEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.events.AppendTo(nil)
}

// Dropped reports how many events have been overwritten by newer ones.
func (r *ConnRecorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.events.Overwritten()
}
