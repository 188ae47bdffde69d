package federate

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"slices"
	"sync"
	"time"

	"spire/internal/event"
	"spire/internal/model"
	"spire/internal/stream"
	"spire/internal/trace"
)

// CoordinatorConfig configures the federation coordinator.
type CoordinatorConfig struct {
	// Zones is the cluster size; workers must announce zone IDs in
	// [0, Zones).
	Zones int

	// Sink receives each merged epoch's events, in epoch order, with the
	// barrier already applied. The final call delivers the closing
	// events. Sink runs on the merge loop; a returned error aborts Serve.
	Sink func(epoch model.Epoch, events []event.Event) error

	// StragglerTimeout bounds how long the epoch barrier waits without
	// progress before failing and naming the zones that are behind
	// (default 30s). Progress means any zone delivering any batch.
	StragglerTimeout time.Duration

	// StragglerWarnFraction is the fraction of StragglerTimeout after
	// which a stalled barrier wait emits a warn-level near-miss naming
	// the missing zones — the operator's heads-up before the fatal
	// timeout (default 0.5; clamped to (0, 1)).
	StragglerWarnFraction float64

	// Log receives connection and progress diagnostics as structured
	// records (near-miss warnings at warn level); nil discards them.
	Log *slog.Logger
}

// zoneConn tracks one zone's delivery and ack state.
type zoneConn struct {
	batches map[model.Epoch][]event.Event // delivered, unmerged
	highest model.Epoch                   // highest epoch ever delivered (dedup)
	acked   model.Epoch
	fin     bool
	finAt   model.Epoch

	// Observability bookkeeping, guarded by the coordinator mutex like
	// the delivery state above.
	nearMisses   int64
	lastDelivery time.Time

	mu            sync.Mutex // guards writes to conn and the fields below
	conn          net.Conn   // live connection, if any
	finalSent     bool       // the worker said Bye: it holds the final mark
	everConnected bool       // a Hello handshake has completed at least once
	connects      int64      // completed handshakes, reconnects included
}

// Coordinator accepts zone-worker connections, aligns their per-epoch
// batches on an epoch barrier, drives the Merger in fixed zone order,
// and acks each epoch back once merged. It serves one cluster run.
type Coordinator struct {
	cfg    CoordinatorConfig
	merger *Merger
	tel    *CoordinatorInstruments
	ctrace *trace.ConnRecorder

	// evPool recycles decoded event slices: a frame is decoded into a
	// pooled slice on its zone's connection goroutine, the slice is owned
	// by the delivery map until the barrier merges the epoch, and the
	// merge loop returns it here.
	evPool sync.Pool

	mu     sync.Mutex
	zones  []*zoneConn
	notify chan struct{}
	final  model.Epoch // the final merged epoch, once known (else EpochNone)

	barrier      model.Epoch // epoch the barrier is merging or waiting for
	mergedEpochs int64
	nearMisses   int64
	linger       time.Duration // final-ack wait after the last merge

	events int64
}

// NewCoordinator builds a coordinator for a cluster of cfg.Zones workers.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Zones < 1 {
		return nil, fmt.Errorf("federate: coordinator needs at least 1 zone, got %d", cfg.Zones)
	}
	if cfg.StragglerTimeout <= 0 {
		cfg.StragglerTimeout = 30 * time.Second
	}
	if cfg.StragglerWarnFraction <= 0 || cfg.StragglerWarnFraction >= 1 {
		cfg.StragglerWarnFraction = 0.5
	}
	if cfg.Log == nil {
		cfg.Log = slog.New(slog.DiscardHandler)
	}
	c := &Coordinator{
		cfg:     cfg,
		merger:  NewMerger(),
		tel:     &noCoordinatorInstruments,
		zones:   make([]*zoneConn, cfg.Zones),
		notify:  make(chan struct{}, 1),
		final:   model.EpochNone,
		barrier: model.EpochNone,
	}
	for z := range c.zones {
		c.zones[z] = &zoneConn{
			batches: make(map[model.Epoch][]event.Event),
			highest: model.EpochNone,
			acked:   model.EpochNone,
			finAt:   model.EpochNone,
		}
	}
	return c, nil
}

// TraceConn attaches a connection flight recorder; nil detaches. Call
// before Serve.
func (c *Coordinator) TraceConn(rec *trace.ConnRecorder) { c.ctrace = rec }

// MergedEvents reports the number of events merged so far.
func (c *Coordinator) MergedEvents() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.events
}

// Serve accepts workers on ln and merges until every zone has delivered
// its Fin and the final epoch is merged, then returns nil. It returns an
// error on context cancellation, a straggler timeout, or a sink failure.
func (c *Coordinator) Serve(ctx context.Context, ln net.Listener) error {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		<-actx.Done()
		ln.Close()
	}()
	go c.acceptLoop(actx, ln)
	return c.mergeLoop(actx)
}

func (c *Coordinator) acceptLoop(ctx context.Context, ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed (shutdown) — merge loop decides the outcome
		}
		go c.handleConn(ctx, conn)
	}
}

// handleConn serves one worker connection: handshake, then deliveries.
func (c *Coordinator) handleConn(ctx context.Context, conn net.Conn) {
	defer conn.Close()
	hello, n, err := stream.ReadFrameCount(conn)
	if err == nil && hello.Type != stream.FrameHello {
		err = fmt.Errorf("first frame is %s, want hello", hello.Type)
	}
	if err != nil {
		c.cfg.Log.Warn("bad handshake", "remote", fmt.Sprint(conn.RemoteAddr()), "err", err)
		if errors.Is(err, stream.ErrProtocolVersion) {
			// Tell a worker speaking another version which one this is;
			// its HelloAck decode fails the same way and it stops.
			stream.WriteFrame(conn, &stream.Frame{Type: stream.FrameHelloAck, Epoch: model.EpochNone}) //nolint:errcheck — closing anyway
		}
		return
	}
	if hello.Zone < 0 || hello.Zone >= c.cfg.Zones {
		c.cfg.Log.Warn("zone out of range", "zone", hello.Zone, "zones", c.cfg.Zones)
		return
	}
	zc := c.zones[hello.Zone]
	zoneAt(c.tel.ZoneRxBytes, hello.Zone).Add(int64(n))

	c.mu.Lock()
	acked := zc.acked
	c.mu.Unlock()
	zc.mu.Lock()
	if zc.conn != nil {
		zc.conn.Close() // a reconnecting worker replaces its old link
		zc.conn = nil
	}
	err = stream.WriteFrame(conn, &stream.Frame{Type: stream.FrameHelloAck, Epoch: acked})
	if err == nil {
		zc.conn = conn
		zc.everConnected = true
		zc.connects++
	}
	zc.mu.Unlock()
	if err != nil {
		return
	}
	c.ctrace.Record(trace.ConnEvent{Kind: trace.ConnConnect, Zone: hello.Zone, Epoch: acked,
		Detail: "handshake complete; acked mark sent"})
	c.cfg.Log.Info("zone connected", "zone", hello.Zone, "acked", int64(acked), "worker_epoch", int64(hello.Epoch))

	defer func() {
		zc.mu.Lock()
		if zc.conn == conn {
			zc.conn = nil
		}
		zc.mu.Unlock()
	}()
	// Frames decode into pooled event slices: a delivered batch keeps its
	// slice until the barrier merges that epoch; duplicates hand theirs
	// straight back as the next read's scratch.
	scratch := c.getEvents()
	defer func() { c.putEvents(scratch) }()
	for {
		f, n, err := stream.ReadFrameCountInto(conn, scratch[:0])
		if err != nil {
			if ctx.Err() == nil {
				c.cfg.Log.Warn("zone connection lost", "zone", hello.Zone, "err", err)
				c.ctrace.Record(trace.ConnEvent{Kind: trace.ConnLost, Zone: hello.Zone,
					Detail: err.Error()})
			}
			return
		}
		zoneAt(c.tel.ZoneRxBytes, hello.Zone).Add(int64(n))
		switch f.Type {
		case stream.FrameEpochCols, stream.FrameFinCols:
			if c.deliver(ZoneID(hello.Zone), f) {
				scratch = c.getEvents()
			} else {
				scratch = f.Events // duplicate dropped; reuse its storage
			}
		case stream.FrameBye:
			// The worker confirms it observed the final ack and is
			// exiting; the post-run linger stops waiting on this zone.
			zc.mu.Lock()
			zc.finalSent = true
			zc.mu.Unlock()
			c.cfg.Log.Info("zone goodbye", "zone", hello.Zone, "acked", int64(f.Epoch))
			return
		default:
			c.cfg.Log.Warn("unexpected frame", "zone", hello.Zone, "frame", f.Type.String())
			return
		}
	}
}

// deliver stores one zone's batch, discarding epochs the coordinator has
// already seen (re-sends after a worker reconnect or restart). It
// reports whether the batch was stored — a stored batch owns its event
// slice until the merge loop recycles it.
func (c *Coordinator) deliver(zone ZoneID, f *stream.Frame) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	zc := c.zones[zone]
	zc.lastDelivery = time.Now()
	if f.Epoch <= zc.highest {
		return false // duplicate of an epoch already delivered
	}
	zc.batches[f.Epoch] = f.Events
	zc.highest = f.Epoch
	if f.Type == stream.FrameFinCols {
		zc.fin = true
		zc.finAt = f.Epoch
		c.cfg.Log.Info("zone finished", "zone", int(zone), "epoch", int64(f.Epoch))
	}
	zoneAt(c.tel.ZoneEpochs, int(zone)).Inc()
	zoneAt(c.tel.ZoneEvents, int(zone)).Add(int64(len(f.Events)))
	select {
	case c.notify <- struct{}{}:
	default:
	}
	return true
}

// getEvents and putEvents recycle decoded event slices between the
// per-zone connection goroutines (which fill them) and the merge loop
// (which drains them after the barrier).
func (c *Coordinator) getEvents() []event.Event {
	if p, ok := c.evPool.Get().(*[]event.Event); ok {
		return (*p)[:0]
	}
	return nil
}

func (c *Coordinator) putEvents(ev []event.Event) {
	if cap(ev) == 0 {
		return
	}
	ev = ev[:0]
	c.evPool.Put(&ev)
}

// mergeLoop advances the epoch barrier: epoch T merges once every zone
// has delivered T, zones ingest in fixed order 0..N-1, the barrier's
// deferred resolutions run, the merged events go to the sink, and T is
// acked to every zone.
func (c *Coordinator) mergeLoop(ctx context.Context) error {
	next := model.EpochNone // next epoch to merge; EpochNone until known
	wantSince := time.Now() // when the barrier started wanting `next`
	for {
		c.mu.Lock()
		if next == model.EpochNone {
			next = c.firstEpochLocked()
		}
		c.barrier = next
		ready := next != model.EpochNone && c.readyLocked(next)
		final := ready && c.allFinAtLocked(next)
		var batches [][]event.Event
		if ready {
			batches = make([][]event.Event, c.cfg.Zones)
			for z, zc := range c.zones {
				batches[z] = zc.batches[next]
				delete(zc.batches, next)
			}
		}
		c.mu.Unlock()

		if !ready {
			if err := c.waitDelivery(ctx, next); err != nil {
				return err
			}
			continue
		}

		// Time-at-barrier for this epoch: from the moment the barrier
		// began wanting it (right after the previous merge) until every
		// zone's batch arrived and the merge starts.
		c.tel.BarrierWait.Observe(time.Since(wantSince).Seconds())

		// The Fin batches carry every zone's closing events, emitted at
		// the final epoch; there MergeEpoch also ends every interval still
		// open in the merged state.
		merged, err := c.merger.MergeEpoch(next, batches, final)
		if err != nil {
			return fmt.Errorf("federate: coordinator: epoch %d: %w", next, err)
		}
		// The merge copied everything it keeps; the decoded slices go
		// back to the pool for the connection readers.
		for _, b := range batches {
			c.putEvents(b)
		}

		c.mu.Lock()
		c.events += int64(len(merged))
		c.mergedEpochs++
		for _, zc := range c.zones {
			if next > zc.acked {
				zc.acked = next
			}
		}
		if final {
			c.final = next
		}
		c.mu.Unlock()
		if c.cfg.Sink != nil {
			if err := c.cfg.Sink(next, merged); err != nil {
				return fmt.Errorf("federate: coordinator sink at epoch %d: %w", next, err)
			}
		}
		c.ack(next)
		if final {
			c.cfg.Log.Info("final epoch merged", "epoch", int64(next), "events", c.MergedEvents())
			c.lingerForFinalAcks(ctx)
			return nil
		}
		next++
		wantSince = time.Now()
	}
}

// firstEpochLocked finds the first epoch to merge: the minimum delivered
// epoch once every zone has delivered something. All zones interpret the
// same warehouse timeline, so their first epochs coincide; the minimum
// guards against a misaligned zone (which would then trip the barrier's
// straggler timeout, naming it).
func (c *Coordinator) firstEpochLocked() model.Epoch {
	first := model.EpochNone
	for _, zc := range c.zones {
		if len(zc.batches) == 0 {
			return model.EpochNone
		}
		for e := range zc.batches {
			if first == model.EpochNone || e < first {
				first = e
			}
		}
	}
	return first
}

func (c *Coordinator) readyLocked(epoch model.Epoch) bool {
	for _, zc := range c.zones {
		if _, ok := zc.batches[epoch]; !ok {
			return false
		}
	}
	return true
}

func (c *Coordinator) allFinAtLocked(epoch model.Epoch) bool {
	for _, zc := range c.zones {
		if !zc.fin || zc.finAt != epoch {
			return false
		}
	}
	return true
}

// waitDelivery blocks until some zone delivers a batch, or the straggler
// timeout expires — in which case the error names the zones holding up
// the barrier for the wanted epoch. A wait that crosses the warn
// fraction of the timeout first raises a near-miss: the missing zones
// are named at warn level and counted, so an operator (or an alert on
// spire_fed_straggler_near_miss_total) sees the culprit before the run
// dies.
func (c *Coordinator) waitDelivery(ctx context.Context, wanted model.Epoch) error {
	warnAfter := time.Duration(float64(c.cfg.StragglerTimeout) * c.cfg.StragglerWarnFraction)
	warn := time.NewTimer(warnAfter)
	defer warn.Stop()
	full := time.NewTimer(c.cfg.StragglerTimeout)
	defer full.Stop()
	warnC := warn.C
	for {
		select {
		case <-c.notify:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		case <-warnC:
			c.nearMiss(wanted, warnAfter)
			warnC = nil // one near-miss per stalled wait
		case <-full.C:
			missing := c.missingZones(wanted)
			c.ctrace.Record(trace.ConnEvent{Kind: trace.ConnBarrierStall, Epoch: wanted,
				Detail:     fmt.Sprintf("zones %v", missing),
				DurationMS: float64(c.cfg.StragglerTimeout.Milliseconds())})
			c.cfg.Log.Error("barrier straggler timeout", "epoch", int64(wanted),
				"zones", fmt.Sprint(missing), "waited", c.cfg.StragglerTimeout.String())
			return c.stragglerError(wanted, missing)
		}
	}
}

// nearMiss records a barrier wait that crossed the warn fraction of the
// straggler timeout, naming the zones still missing the wanted epoch.
func (c *Coordinator) nearMiss(wanted model.Epoch, waited time.Duration) {
	missing := c.missingZones(wanted)
	c.mu.Lock()
	c.nearMisses++
	for _, z := range missing {
		c.zones[z].nearMisses++
	}
	c.mu.Unlock()
	c.ctrace.Record(trace.ConnEvent{Kind: trace.ConnNearMiss, Epoch: wanted,
		Detail:     fmt.Sprintf("zones %v", missing),
		DurationMS: float64(waited.Milliseconds())})
	c.cfg.Log.Warn("barrier near-miss", "epoch", int64(wanted), "zones", fmt.Sprint(missing),
		"waited", waited.String(), "timeout", c.cfg.StragglerTimeout.String())
}

// missingZones lists the zones that have not delivered the wanted epoch
// (or, before the first epoch is known, anything at all).
func (c *Coordinator) missingZones(wanted model.Epoch) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var missing []int
	for z, zc := range c.zones {
		if wanted == model.EpochNone {
			if len(zc.batches) == 0 {
				missing = append(missing, z)
			}
		} else if _, ok := zc.batches[wanted]; !ok {
			missing = append(missing, z)
		}
	}
	slices.Sort(missing)
	return missing
}

func (c *Coordinator) stragglerError(wanted model.Epoch, missing []int) error {
	if wanted == model.EpochNone {
		return fmt.Errorf("federate: epoch barrier stalled after %v waiting for first batch from zones %v",
			c.cfg.StragglerTimeout, missing)
	}
	return fmt.Errorf("federate: epoch barrier stalled after %v waiting for epoch %d from zones %v",
		c.cfg.StragglerTimeout, wanted, missing)
}

// ack sends the merged-through mark to every connected zone. Dead
// connections are skipped — a reconnecting worker learns the mark from
// its HelloAck instead.
func (c *Coordinator) ack(epoch model.Epoch) {
	for z, zc := range c.zones {
		zc.mu.Lock()
		if zc.conn != nil {
			if err := stream.WriteFrame(zc.conn, &stream.Frame{Type: stream.FrameAck, Epoch: epoch}); err != nil {
				c.cfg.Log.Warn("ack write failed", "zone", z, "epoch", int64(epoch), "err", err)
				zc.conn.Close()
				zc.conn = nil
			}
		}
		zc.mu.Unlock()
	}
}

// lingerForFinalAcks keeps the coordinator alive briefly after the final
// merge until every zone has confirmed the final mark with its Bye frame
// — a successful ack write proves nothing about what the worker read
// before the link died. Without this, a zone whose connection was down
// at the final merge would retry against a vanished coordinator forever.
func (c *Coordinator) lingerForFinalAcks(ctx context.Context) {
	start := time.Now()
	deadline := time.After(c.cfg.StragglerTimeout)
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	record := func(pending []int) {
		lingered := time.Since(start)
		c.mu.Lock()
		c.linger = lingered
		c.mu.Unlock()
		c.tel.LingerMissed.Add(int64(len(pending)))
		c.ctrace.Record(trace.ConnEvent{Kind: trace.ConnFinalLinger,
			Detail:     fmt.Sprintf("pending zones %v", pending),
			DurationMS: float64(lingered.Milliseconds())})
	}
	for {
		var pending []int
		for z, zc := range c.zones {
			zc.mu.Lock()
			if !zc.finalSent {
				pending = append(pending, z)
			}
			zc.mu.Unlock()
		}
		if len(pending) == 0 {
			record(nil)
			return
		}
		select {
		case <-ctx.Done():
			record(pending)
			return
		case <-deadline:
			record(pending)
			c.cfg.Log.Warn("final ack undelivered", "zones", fmt.Sprint(pending))
			return
		case <-tick.C:
		}
	}
}
