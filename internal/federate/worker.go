package federate

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"

	"spire/internal/core"
	"spire/internal/event"
	"spire/internal/model"
	"spire/internal/stream"
	"spire/internal/telemetry"
	"spire/internal/trace"
)

// BatchSource yields one zone's per-epoch columnar batches in epoch
// order, returning io.EOF after the last epoch. The returned batch is
// owned by the source and valid only until the next NextBatch call; the
// worker consumes it in place (sim.ZoneBatchStream implements this).
type BatchSource interface {
	NextBatch() (*model.Batch, error)
}

// WorkerConfig configures a zone worker.
type WorkerConfig struct {
	// Zone is this worker's zone ID (0-based, dense).
	Zone ZoneID
	// Addr is the coordinator's address (TCP host:port), used by the
	// default dialer.
	Addr string
	// Dial overrides the default net.Dial("tcp", Addr); tests use it to
	// inject pipes or failure.
	Dial func(ctx context.Context) (net.Conn, error)

	// Substrate is the zone's interpretation substrate — fresh, or
	// restored from a checkpoint to resume.
	Substrate *core.Substrate

	// CheckpointPath, when set, enables crash recovery: the substrate is
	// snapshotted every CheckpointEvery epochs, and the snapshot is
	// written (atomically) once the coordinator has acked an epoch at or
	// past it. A checkpoint on disk therefore never runs ahead of the
	// coordinator's ack high-water mark — the invariant that makes
	// resume exact: a restarted worker replays the deterministic epoch
	// source from the checkpoint and re-sends precisely the epochs after
	// the coordinator's HelloAck.
	CheckpointPath  string
	CheckpointEvery model.Epoch

	// AckWindow bounds how many epochs the worker may run ahead of the
	// coordinator's acks (default 64).
	AckWindow int
	// AckTimeout bounds the wait for an ack when the window is full
	// (default 15s); on expiry the connection is presumed dead and
	// redialed.
	AckTimeout time.Duration

	// BaseBackoff and MaxBackoff shape the capped exponential backoff
	// between connection attempts (defaults 50ms and 3s). Each sleep is
	// jittered uniformly over [d/2, d] so a cluster of zones losing one
	// coordinator does not redial in lockstep; JitterSeed pins the
	// jitter sequence for tests (0 derives a seed from the clock and
	// zone).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	JitterSeed  int64

	// Logf, when set, receives progress and retry diagnostics in printf
	// form. Log, when set, receives connection transitions as structured
	// records; either or both may be nil.
	Logf func(format string, args ...any)
	Log  *slog.Logger
}

type epochBatch struct {
	epoch  model.Epoch
	events []event.Event
	fin    bool
	sentAt time.Time // first submit time, for ack RTT; zero uninstrumented

	// wire is the batch's encoded frame (length prefix included), built
	// once at first send and written verbatim on every replay. Owning
	// the bytes here is the replay buffer's aliasing fix: a redial
	// mid-epoch re-sends stable private storage, never a column or
	// scratch slice some other layer is still rewriting. wireCols
	// records which encoding the bytes carry so a reconnect that
	// renegotiates capabilities re-encodes instead of replaying frames
	// the peer no longer understands.
	wire     []byte
	wireCols bool
}

// Worker streams one zone substrate's compressed output to the
// federation coordinator, with reconnection, epoch acks, and
// checkpoint-on-ack crash recovery. Use one goroutine per worker.
type Worker struct {
	cfg WorkerConfig
	rng *rand.Rand

	tel    *WorkerInstruments
	ctrace *trace.ConnRecorder

	conn  net.Conn
	acks  chan model.Epoch
	rderr chan error
	caps  uint32 // capabilities negotiated with the current connection

	lastAcked model.Epoch
	buffer    []*epochBatch // processed, not yet acked (epochs > lastAcked)

	snapEpoch model.Epoch // epoch of the in-memory snapshot (EpochNone: none)
	snapData  []byte
	snapSecs  float64 // capture latency of the in-memory snapshot

	statusMu sync.Mutex
	status   WorkerStatus
}

// NewWorker builds a worker; RunBatches drives it.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Substrate == nil {
		return nil, errors.New("federate: worker needs a substrate")
	}
	if cfg.Zone < 0 {
		return nil, fmt.Errorf("federate: invalid zone %d", cfg.Zone)
	}
	if cfg.Dial == nil {
		addr := cfg.Addr
		if addr == "" {
			return nil, errors.New("federate: worker needs Addr or Dial")
		}
		cfg.Dial = func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 50
	}
	if cfg.AckWindow <= 0 {
		cfg.AckWindow = 64
	}
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = 15 * time.Second
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 50 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 3 * time.Second
	}
	if cfg.JitterSeed == 0 {
		cfg.JitterSeed = time.Now().UnixNano() ^ (int64(cfg.Zone) << 32)
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	w := &Worker{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.JitterSeed)),
		lastAcked: model.EpochNone,
		snapEpoch: model.EpochNone,
	}
	w.status = WorkerStatus{
		Zone:            int(cfg.Zone),
		State:           ZoneConnecting,
		LastProcessed:   model.EpochNone,
		LastAcked:       model.EpochNone,
		AckWindow:       cfg.AckWindow,
		CheckpointEpoch: model.EpochNone,
	}
	return w, nil
}

// TraceConn attaches a connection flight recorder; nil detaches. Call
// before RunBatches.
func (w *Worker) TraceConn(rec *trace.ConnRecorder) { w.ctrace = rec }

// timed reports whether the worker should read the clock for latency
// metrics; uninstrumented runs take no timing branches.
func (w *Worker) timed() bool { return w.tel != nil || w.ctrace != nil }

// jitterBackoff spreads one backoff sleep uniformly over [d/2, d]
// (full-jitter on the upper half). The cap keeps the upper bound at the
// configured backoff, so the jittered schedule is never slower than the
// unjittered one.
func jitterBackoff(rng *rand.Rand, d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := d / 2
	return half + time.Duration(rng.Int63n(int64(d-half)+1))
}

// RunBatches processes the source to completion: every epoch's batch is
// processed in place through the substrate, and every epoch after the
// coordinator's ack high-water mark is streamed to it. RunBatches returns
// once the coordinator has acked the final (Fin) epoch, or with the
// context's error.
func (w *Worker) RunBatches(ctx context.Context, src BatchSource) error {
	defer w.dropConn()

	// A restored substrate has already processed everything up to its
	// checkpoint epoch; the deterministic source replays those epochs and
	// we discard them.
	resume := w.cfg.Substrate.LastEpoch()
	if err := w.ensureConn(ctx); err != nil {
		return err
	}

	last := resume
	for {
		b, err := src.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("federate: zone %d source: %w", w.cfg.Zone, err)
		}
		if b.Time <= resume {
			continue // replaying epochs already inside the checkpoint
		}
		epoch := b.Time
		out, err := w.cfg.Substrate.ProcessBatch(b)
		if err != nil {
			return fmt.Errorf("federate: zone %d epoch %d: %w", w.cfg.Zone, epoch, err)
		}
		last = epoch
		w.setStatus(func(s *WorkerStatus) { s.LastProcessed = epoch })
		if err := w.submit(ctx, &epochBatch{epoch: epoch, events: out.Events}); err != nil {
			return err
		}
		if (epoch-resume)%w.cfg.CheckpointEvery == 0 {
			w.takeSnapshot(epoch)
		}
	}
	return w.finishRun(ctx, last)
}

// finishRun submits the Fin epoch and waits for the coordinator to ack
// everything.
func (w *Worker) finishRun(ctx context.Context, last model.Epoch) error {
	end := last + 1
	fin := &epochBatch{epoch: end, events: w.cfg.Substrate.Close(end), fin: true}
	w.setStatus(func(s *WorkerStatus) { s.LastProcessed = end })
	if err := w.submit(ctx, fin); err != nil {
		return err
	}
	// Wait for everything (including the Fin epoch) to be acked.
	for w.lastAcked < end {
		if err := w.awaitAck(ctx); err != nil {
			return err
		}
	}
	w.sendBye(ctx)
	w.setStatus(func(s *WorkerStatus) { s.State = ZoneFinished })
	if w.cfg.Log != nil {
		w.cfg.Log.Info("zone run complete", "zone", int(w.cfg.Zone), "final_epoch", int64(end))
	}
	return nil
}

// sendBye tells the coordinator this worker has observed the final ack
// and is exiting, so its post-run linger ends immediately instead of
// guessing whether the ack writes were read. Best-effort with a bounded
// retry budget — a lost Bye costs the coordinator only its linger
// timeout, while an unbounded retry here could chase a coordinator that
// has already given up on us and gone away.
func (w *Worker) sendBye(ctx context.Context) {
	for attempt := 0; attempt < 4; attempt++ {
		if ctx.Err() != nil {
			return
		}
		if w.conn == nil {
			if err := w.connectOnce(ctx); err != nil {
				select {
				case <-ctx.Done():
					return
				case <-time.After(jitterBackoff(w.rng, w.cfg.BaseBackoff)):
				}
				continue
			}
		}
		if w.caps&stream.CapBye == 0 {
			return // legacy coordinator: it lingers on its own heuristics
		}
		if _, err := stream.WriteFrameCount(w.conn, &stream.Frame{Type: stream.FrameBye, Epoch: w.lastAcked}); err == nil {
			return
		}
		w.dropConn()
	}
}

// submit buffers the batch, sends it, and enforces the ack window.
func (w *Worker) submit(ctx context.Context, b *epochBatch) error {
	w.drainAcks()
	if b.epoch <= w.lastAcked {
		return nil // already merged before a restart; nothing to send
	}
	if w.timed() {
		b.sentAt = time.Now()
	}
	w.buffer = append(w.buffer, b)
	w.tel.epochsSubmitted().Inc()
	w.noteReplayDepth()
	if err := w.sendBatch(ctx, b); err != nil {
		return err
	}
	for len(w.buffer) > w.cfg.AckWindow {
		if err := w.awaitAck(ctx); err != nil {
			return err
		}
	}
	return nil
}

// noteReplayDepth refreshes the replay-depth gauge and high-water mark
// from the current buffer.
func (w *Worker) noteReplayDepth() {
	depth := len(w.buffer)
	w.tel.replayDepth().Set(int64(depth))
	w.setStatus(func(s *WorkerStatus) {
		s.ReplayDepth = depth
		if depth > s.ReplayHighWater {
			s.ReplayHighWater = depth
			w.tel.replayHighWater().Set(int64(depth))
		}
	})
}

// sendBatch delivers the batch, redialing until it succeeds or the
// context ends. When there is no live connection, the (re)connect itself
// is the delivery: submit buffers b before sending, so connectOnce's
// replay of the unacked buffer already carries it (or the HelloAck
// proved it merged). Writing b again after a replay would double-send
// one frame per reconnect — and against a flaky link that dies every few
// writes, the redundant write burned the fresh connection immediately,
// livelocking the worker in a reconnect cycle.
func (w *Worker) sendBatch(ctx context.Context, b *epochBatch) error {
	for {
		if w.conn == nil {
			return w.ensureConn(ctx)
		}
		if err := w.writeBatch(b); err == nil {
			return nil
		} else {
			w.cfg.Logf("zone %d: send epoch %d: %v; reconnecting", w.cfg.Zone, b.epoch, err)
			if w.cfg.Log != nil {
				w.cfg.Log.Warn("send failed", "zone", int(w.cfg.Zone), "epoch", int64(b.epoch), "err", err)
			}
			w.dropConn()
		}
	}
}

// writeBatch sends the batch's frame, encoding it into the batch's owned
// wire buffer on first use. Replays after a reconnect write the same
// bytes zero-copy; only a capability change across the reconnect (the
// coordinator was replaced by one speaking a different encoding) forces
// a re-encode.
func (w *Worker) writeBatch(b *epochBatch) error {
	cols := w.caps&stream.CapColumnarEpoch != 0
	if len(b.wire) == 0 || b.wireCols != cols {
		typ := stream.FrameEpoch
		switch {
		case b.fin && cols:
			typ = stream.FrameFinCols
		case b.fin:
			typ = stream.FrameFin
		case cols:
			typ = stream.FrameEpochCols
		}
		var err error
		b.wire, err = stream.AppendFrame(b.wire[:0], &stream.Frame{Type: typ, Epoch: b.epoch, Events: b.events})
		if err != nil {
			return err
		}
		b.wireCols = cols
	}
	n, err := w.conn.Write(b.wire)
	w.tel.txBytes().Add(int64(n))
	return err
}

// ensureConn dials and handshakes with capped exponential backoff,
// jittered so sibling zones spread their retries.
func (w *Worker) ensureConn(ctx context.Context) error {
	if w.conn != nil {
		return nil
	}
	backoff := w.cfg.BaseBackoff
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := w.connectOnce(ctx)
		if err == nil {
			return nil
		}
		w.tel.connectFailures().Inc()
		w.setStatus(func(s *WorkerStatus) { s.ConnectFailures++ })
		sleep := jitterBackoff(w.rng, backoff)
		w.tel.backoffMS().Set(sleep.Milliseconds())
		w.setStatus(func(s *WorkerStatus) { s.BackoffMS = sleep.Milliseconds() })
		w.ctrace.Record(trace.ConnEvent{Kind: trace.ConnConnectFailed, Zone: int(w.cfg.Zone),
			Detail: err.Error(), DurationMS: float64(sleep.Milliseconds())})
		w.cfg.Logf("zone %d: connect attempt %d: %v; retrying in %v", w.cfg.Zone, attempt+1, err, sleep)
		if w.cfg.Log != nil {
			w.cfg.Log.Warn("connect failed", "zone", int(w.cfg.Zone), "attempt", attempt+1,
				"err", err, "retry_in", sleep.String())
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(sleep):
		}
		backoff *= 2
		if backoff > w.cfg.MaxBackoff {
			backoff = w.cfg.MaxBackoff
		}
	}
}

// connectOnce performs one dial + Hello/HelloAck handshake and, on
// success, re-sends any buffered epochs past the coordinator's ack.
func (w *Worker) connectOnce(ctx context.Context) error {
	conn, err := w.cfg.Dial(ctx)
	if err != nil {
		return err
	}
	hello := &stream.Frame{Type: stream.FrameHello, Zone: int(w.cfg.Zone),
		Epoch: w.cfg.Substrate.LastEpoch(), Caps: stream.CapColumnarEpoch | stream.CapBye}
	if _, err := stream.WriteFrameCount(conn, hello); err != nil {
		conn.Close()
		return err
	}
	f, err := stream.ReadFrame(conn)
	if err != nil {
		conn.Close()
		return err
	}
	if f.Type != stream.FrameHelloAck {
		conn.Close()
		return fmt.Errorf("handshake: got %s, want hello-ack", f.Type)
	}
	w.conn = conn
	// The intersection of offered and acked capabilities governs every
	// frame on this connection, including the replay below — a legacy
	// coordinator acks 0 and gets row frames (and no Bye).
	w.caps = (stream.CapColumnarEpoch | stream.CapBye) & f.Caps
	w.acks = make(chan model.Epoch, 64)
	w.rderr = make(chan error, 1)
	go readAcks(conn, w.acks, w.rderr, w.tel.rxBytes())
	w.handleAck(f.Epoch)
	w.tel.connects().Inc()
	w.tel.connected().Set(1)
	w.tel.backoffMS().Set(0)
	w.setStatus(func(s *WorkerStatus) {
		s.State = ZoneStreaming
		s.Connects++
		s.BackoffMS = 0
	})
	w.ctrace.Record(trace.ConnEvent{Kind: trace.ConnConnect, Zone: int(w.cfg.Zone), Epoch: f.Epoch,
		Detail: "handshake complete"})
	if w.cfg.Log != nil {
		w.cfg.Log.Info("connected", "zone", int(w.cfg.Zone), "coordinator_acked", int64(f.Epoch),
			"replaying", len(w.buffer))
	}
	// Re-send whatever the coordinator is missing, oldest first.
	var replayStart time.Time
	if w.timed() && len(w.buffer) > 0 {
		replayStart = time.Now()
	}
	for _, b := range w.buffer {
		if err := w.writeBatch(b); err != nil {
			w.dropConn()
			return err
		}
	}
	if n := len(w.buffer); n > 0 {
		w.tel.replayedEpochs().Add(int64(n))
		var tookMS float64
		if !replayStart.IsZero() {
			tookMS = float64(time.Since(replayStart).Milliseconds())
		}
		w.ctrace.Record(trace.ConnEvent{Kind: trace.ConnReplay, Zone: int(w.cfg.Zone),
			Epoch: w.buffer[n-1].epoch, Detail: fmt.Sprintf("%d epochs re-sent", n), DurationMS: tookMS})
	}
	return nil
}

// readAcks pumps Ack frames from the connection until it fails.
func readAcks(conn net.Conn, acks chan<- model.Epoch, rderr chan<- error, rx *telemetry.Counter) {
	for {
		f, n, err := stream.ReadFrameCount(conn)
		if err != nil {
			rderr <- err
			return
		}
		rx.Add(int64(n))
		if f.Type == stream.FrameAck {
			// Acks are cumulative high-water marks, so dropping one when
			// the buffer is full is harmless — and it keeps this goroutine
			// from blocking forever after the worker abandons the
			// connection.
			select {
			case acks <- f.Epoch:
			default:
			}
		}
	}
}

func (w *Worker) dropConn() {
	if w.conn != nil {
		w.conn.Close()
		w.conn = nil
		w.acks = nil
		w.rderr = nil
		w.caps = 0
		w.tel.connected().Set(0)
		w.setStatus(func(s *WorkerStatus) {
			if s.State == ZoneStreaming {
				s.State = ZoneLost
			}
		})
	}
}

// drainAcks applies any acks that have already arrived.
func (w *Worker) drainAcks() {
	if w.acks == nil {
		return
	}
	for {
		select {
		case a := <-w.acks:
			w.handleAck(a)
		default:
			return
		}
	}
}

// awaitAck blocks until an ack arrives (applying it), the connection
// fails (reconnecting), or the context ends.
func (w *Worker) awaitAck(ctx context.Context) error {
	if err := w.ensureConn(ctx); err != nil {
		return err
	}
	select {
	case a := <-w.acks:
		w.handleAck(a)
		return nil
	case err := <-w.rderr:
		// Acks that arrived before the failure may still sit in the
		// channel (the select picks arbitrarily among ready cases) —
		// apply them before abandoning the connection, or a final ack
		// delivered just ahead of the coordinator's shutdown would be
		// lost. The caller re-checks its condition before the next
		// awaitAck redials.
		w.drainAcks()
		w.cfg.Logf("zone %d: connection lost waiting for ack: %v", w.cfg.Zone, err)
		if w.cfg.Log != nil {
			w.cfg.Log.Warn("connection lost", "zone", int(w.cfg.Zone), "err", err)
		}
		w.ctrace.Record(trace.ConnEvent{Kind: trace.ConnLost, Zone: int(w.cfg.Zone), Detail: err.Error()})
		w.dropConn()
		return nil
	case <-time.After(w.cfg.AckTimeout):
		w.cfg.Logf("zone %d: no ack within %v; reconnecting", w.cfg.Zone, w.cfg.AckTimeout)
		if w.cfg.Log != nil {
			w.cfg.Log.Warn("ack stall", "zone", int(w.cfg.Zone), "timeout", w.cfg.AckTimeout.String())
		}
		w.tel.ackStalls().Inc()
		w.setStatus(func(s *WorkerStatus) { s.AckStalls++ })
		w.ctrace.Record(trace.ConnEvent{Kind: trace.ConnAckStall, Zone: int(w.cfg.Zone),
			DurationMS: float64(w.cfg.AckTimeout.Milliseconds())})
		w.dropConn()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// handleAck advances the ack high-water mark, trims the replay buffer,
// and persists any snapshot the ack has made safe to keep.
func (w *Worker) handleAck(a model.Epoch) {
	if a <= w.lastAcked {
		return
	}
	w.lastAcked = a
	i := 0
	for i < len(w.buffer) && w.buffer[i].epoch <= a {
		if !w.buffer[i].sentAt.IsZero() {
			w.tel.ackRTT().Observe(time.Since(w.buffer[i].sentAt).Seconds())
		}
		i++
	}
	w.tel.epochsAcked().Add(int64(i))
	w.buffer = w.buffer[i:]
	w.setStatus(func(s *WorkerStatus) { s.LastAcked = a })
	w.noteReplayDepth()
	w.persistSnapshot()
}

// takeSnapshot captures the substrate state in memory. It is written to
// disk only once the coordinator acks an epoch at or past it, so the
// on-disk checkpoint never outruns the merged stream.
func (w *Worker) takeSnapshot(epoch model.Epoch) {
	if w.cfg.CheckpointPath == "" {
		return
	}
	var start time.Time
	if w.timed() {
		start = time.Now()
	}
	var buf bytes.Buffer
	if err := w.cfg.Substrate.Snapshot(&buf); err != nil {
		w.cfg.Logf("zone %d: snapshot at epoch %d: %v", w.cfg.Zone, epoch, err)
		if w.cfg.Log != nil {
			w.cfg.Log.Warn("snapshot failed", "zone", int(w.cfg.Zone), "epoch", int64(epoch), "err", err)
		}
		return
	}
	w.snapEpoch = epoch
	w.snapData = buf.Bytes()
	w.snapSecs = 0
	if !start.IsZero() {
		w.snapSecs = time.Since(start).Seconds()
	}
	// The ack may already be past us (acks can outrun snapshots when the
	// window is deep); persist immediately in that case.
	w.persistSnapshot()
}

// persistSnapshot writes the in-memory snapshot to disk iff the
// coordinator's ack has reached its epoch.
func (w *Worker) persistSnapshot() {
	if w.cfg.CheckpointPath == "" {
		return
	}
	if w.snapEpoch != model.EpochNone && w.snapEpoch <= w.lastAcked {
		var start time.Time
		if w.timed() {
			start = time.Now()
		}
		if err := writeFileAtomic(w.cfg.CheckpointPath, w.snapData); err != nil {
			w.cfg.Logf("zone %d: checkpoint write: %v", w.cfg.Zone, err)
			if w.cfg.Log != nil {
				w.cfg.Log.Warn("checkpoint write failed", "zone", int(w.cfg.Zone), "err", err)
			}
			return
		}
		size := len(w.snapData)
		epoch := w.snapEpoch
		if w.tel != nil {
			w.tel.Checkpoints.Inc()
			w.tel.CheckpointBytes.Set(int64(size))
			w.tel.CheckpointSecs.Observe(w.snapSecs + time.Since(start).Seconds())
		}
		w.setStatus(func(s *WorkerStatus) { s.CheckpointEpoch = epoch })
		w.ctrace.Record(trace.ConnEvent{Kind: trace.ConnCheckpoint, Zone: int(w.cfg.Zone),
			Epoch: epoch, Detail: fmt.Sprintf("%d bytes", size)})
		w.cfg.Logf("zone %d: checkpoint at epoch %d persisted", w.cfg.Zone, epoch)
		if w.cfg.Log != nil {
			w.cfg.Log.Info("checkpoint persisted", "zone", int(w.cfg.Zone), "epoch", int64(epoch), "bytes", size)
		}
		w.snapEpoch = model.EpochNone
		w.snapData = nil
	}
}

func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
