package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"time"

	"spire/internal/core"
	"spire/internal/event"
	"spire/internal/federate"
	"spire/internal/model"
	"spire/internal/stream"
	"spire/internal/telemetry"
)

// fedTrace is what a traced cluster pass reads off the federate layer's
// own instruments over the timed section.
type fedTrace struct {
	barrierMS  []float64                  // coordinator barrier wait, per epoch
	ackRTTMS   []float64                  // mean submit-to-ack round trip between a worker's pulls
	wireBytes  int64                      // bytes the coordinator received
	zoneStageS [][len(stageNames)]float64 // each zone substrate's stage seconds
}

// replaySource feeds one zone worker its pre-generated batches. The
// worker pulls the next epoch as soon as it will take one: its substrate
// is done with the last and its ack window has room. The first timed
// epoch is held back until the last ramp epoch is through the
// coordinator's sink, which keeps set-up and the timed section apart.
//
// A gated source holds every timed epoch t back until merged epoch t-1 is
// through the sink. With one epoch in flight an epoch's latency is the
// cluster's service time — slowest zone, frames, barrier, merge, sink —
// which is what a deployment fed one epoch a second sees. Free-running,
// the same interval measures how deep a queue the zones have built up in
// front of the coordinator, so free-running passes time throughput only.
type replaySource struct {
	ctx     context.Context
	batches []*model.Batch
	next    int
	scratch model.Batch
	pulled  []time.Time
	gateAt  int // index of the first timed epoch
	gated   bool
	done    []chan struct{} // done[i] is closed when epoch index i is through the sink

	// Traced passes sample the worker's ack round-trip histogram at each
	// timed pull (the worker updates it on this same goroutine).
	ackRTT   *telemetry.Histogram
	rttSum   float64
	rttCount uint64
	rttMS    []float64
}

func (s *replaySource) NextBatch() (*model.Batch, error) {
	if s.next >= len(s.batches) {
		return nil, io.EOF
	}
	if s.next == s.gateAt || s.gated && s.next > s.gateAt {
		select {
		case <-s.done[s.next-1]:
		case <-s.ctx.Done():
			return nil, s.ctx.Err()
		}
	}
	if s.ackRTT != nil {
		sum, count := s.ackRTT.Sum(), s.ackRTT.Count()
		if count > s.rttCount && s.next > s.gateAt {
			s.rttMS = append(s.rttMS, (sum-s.rttSum)/float64(count-s.rttCount)*1e3)
		}
		s.rttSum, s.rttCount = sum, count
	}
	src := s.batches[s.next]
	// The substrate compacts the batch it is given, so every pass works
	// on a copy in the source's reused scratch columns.
	s.scratch.Time = src.Time
	s.scratch.Groups = append(s.scratch.Groups[:0], src.Groups...)
	s.scratch.Tags = append(s.scratch.Tags[:0], src.Tags...)
	s.pulled[s.next] = time.Now()
	s.next++
	return &s.scratch, nil
}

// clusterPass is the state the coordinator's sink keeps during one pass.
// The sink runs on the coordinator's merge loop only.
type clusterPass struct {
	res         *passResult
	rec         *recorder
	ramp, total int // epoch indices [ramp, total) are timed; index total is the Fin epoch

	done                 []chan struct{} // done[i] is closed when epoch index i is through the sink
	sunk                 []time.Time
	timedStart, timedEnd time.Time
	mem0, mem1           memSnapshot

	// Traced passes only.
	ctel         *federate.CoordinatorInstruments
	stel         []*core.Instruments
	stages0      []stageSums
	rx0          int64
	lastBarrierS float64
	prevExit     int64
}

func (p *clusterPass) rxBytes() (n int64) {
	for _, c := range p.ctel.ZoneRxBytes {
		n += c.Value()
	}
	return n
}

// sink receives each merged epoch: it encodes the events (the cluster's
// output), stamps the epoch done, and opens the timed section once the
// last ramp epoch is through.
func (p *clusterPass) sink(epoch model.Epoch, evs []event.Event) error {
	i := int(epoch) - 1
	timed := i >= p.ramp && i < p.total
	res := p.res
	var entry int64
	if p.rec != nil && timed {
		entry = p.rec.now()
		waitS := p.ctel.BarrierWait.Sum() - p.lastBarrierS
		res.fed.barrierMS = append(res.fed.barrierMS, waitS*1e3)
		// Since the previous sink call returned, the merge loop acked
		// that epoch, waited at the barrier and merged this one. The
		// coordinator's instruments time only the wait, so acking and
		// merging share a span; the two are laid out wait-last, which
		// keeps their durations exact and their order approximate.
		wait := min(int64(waitS*1e9), entry-p.prevExit)
		p.rec.add("federate.merge_ack", p.prevExit, entry-wait, -1, int64(epoch))
		p.rec.add("federate.barrier_wait", entry-wait, entry, -1, int64(epoch))
	}
	start := len(res.out)
	for _, e := range evs {
		var err error
		if res.out, err = event.Append(res.out, e); err != nil {
			return err
		}
	}
	res.ends = append(res.ends, len(res.out))
	if timed {
		res.events += int64(len(evs))
		res.eventBytes += int64(len(res.out) - start)
	}
	p.sunk[i] = time.Now()
	if p.rec != nil {
		if timed {
			p.rec.add("event.encode", entry, p.rec.now(), -1, int64(epoch))
		}
		p.lastBarrierS = p.ctel.BarrierWait.Sum()
		p.prevExit = p.rec.now()
	}
	switch i {
	case p.ramp - 1:
		// Every worker is waiting for this epoch or about to be, so the
		// ramp's totals can be read before the timed section opens.
		p.mem0 = readMem()
		if p.rec != nil {
			p.rx0 = p.rxBytes()
			for z, tel := range p.stel {
				p.stages0[z] = readStages(tel)
			}
			p.rec.timedFrom = p.rec.now()
			p.prevExit = p.rec.timedFrom
		}
		p.timedStart = time.Now()
	case p.total - 1:
		p.timedEnd = p.sunk[i]
		p.mem1 = readMem()
	}
	if i < p.total {
		close(p.done[i])
	}
	return nil
}

// replayClusterOnce replays a cluster workload once: a coordinator on a
// loopback listener, one worker per zone with a fresh substrate, the
// ramp epochs as set-up (a coordinator cannot resume from a checkpoint),
// then the timed epochs: free-running up to the workers' ack window, which
// times the segments, or gated (see replaySource), which times each epoch
// from the last zone pulling it to the coordinator's sink having encoded
// the merged epoch.
func replayClusterOnce(tr *trace, rec *recorder, gated bool) (*passResult, error) {
	w := tr.w
	nz := w.Zones
	p := &clusterPass{
		rec: rec, ramp: int(w.Ramp), total: int(tr.end),
		done: make([]chan struct{}, tr.end),
		sunk: make([]time.Time, tr.end+1),
	}
	for i := range p.done {
		p.done[i] = make(chan struct{})
	}
	p.res = &passResult{
		out:    make([]byte, 0, 1<<20),
		ends:   make([]int, 0, p.total+1),
		epochs: p.total - p.ramp,
	}
	res := p.res
	heapBefore := liveHeapMB()
	if rec != nil {
		rec.start()
		res.fed = &fedTrace{zoneStageS: make([][len(stageNames)]float64, nz)}
		p.stel = make([]*core.Instruments, nz)
		p.stages0 = make([]stageSums, nz)
	}

	setupStart := time.Now()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close() // Serve closes it too; closing twice is harmless
	coord, err := federate.NewCoordinator(federate.CoordinatorConfig{Zones: nz, Sink: p.sink})
	if err != nil {
		return nil, err
	}
	if rec != nil {
		p.ctel = coord.Instrument(telemetry.NewRegistry())
	}
	subs := make([]*core.Substrate, nz)
	srcs := make([]*replaySource, nz)
	workers := make([]*federate.Worker, nz)
	for z := range subs {
		if subs[z], err = core.New(substrateConfig(tr.zoneReaders[z], tr.locs, w.Level)); err != nil {
			return nil, err
		}
		workers[z], err = federate.NewWorker(federate.WorkerConfig{
			Zone: federate.ZoneID(z), Addr: ln.Addr().String(), Substrate: subs[z],
		})
		if err != nil {
			return nil, err
		}
		srcs[z] = &replaySource{
			ctx: ctx, batches: tr.zoneBatches[z], pulled: make([]time.Time, p.total),
			gateAt: p.ramp, gated: gated, done: p.done,
		}
		if rec != nil {
			p.stel[z] = subs[z].Instrument(telemetry.NewRegistry())
			srcs[z].ackRTT = workers[z].Instrument(telemetry.NewRegistry()).AckRTT
		}
	}

	errs := make(chan error, nz+1) // one slot per goroutine below
	var wg sync.WaitGroup
	wg.Add(nz + 1)
	go func() {
		defer wg.Done()
		if err := coord.Serve(ctx, ln); err != nil {
			errs <- fmt.Errorf("coordinator: %w", err)
			cancel()
		}
	}()
	for z := range workers {
		go func() {
			defer wg.Done()
			if err := workers[z].RunBatches(ctx, srcs[z]); err != nil {
				errs <- fmt.Errorf("zone %d: %w", z, err)
				cancel()
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return nil, err
	}
	if len(res.ends) != p.total+1 {
		return nil, fmt.Errorf("coordinator delivered %d epochs, want %d", len(res.ends), p.total+1)
	}

	res.allocBytes, res.mallocs, res.gcCycles = p.mem1.since(p.mem0)
	res.SetupS = p.timedStart.Sub(setupStart).Seconds()
	res.WallS = p.timedEnd.Sub(p.timedStart).Seconds()
	if gated {
		res.LatMS = make([]float64, 0, res.epochs)
		for i := p.ramp; i < p.total; i++ {
			last := srcs[0].pulled[i]
			for _, s := range srcs[1:] {
				if s.pulled[i].After(last) {
					last = s.pulled[i]
				}
			}
			res.LatMS = append(res.LatMS, float64(p.sunk[i].Sub(last).Nanoseconds())/1e6)
		}
	} else {
		segStart := p.timedStart
		for i := p.ramp; i < p.total; i++ {
			if n := i + 1 - p.ramp; n%segmentEpochs == 0 || i+1 == p.total {
				res.SegS = append(res.SegS, p.sunk[i].Sub(segStart).Seconds())
				segStart = p.sunk[i]
			}
		}
	}
	for z, sub := range subs {
		for _, b := range tr.zoneBatches[z][p.ramp:] {
			res.readings += int64(b.Total())
		}
		g := sub.Graph()
		res.graphNodes += g.Len()
		res.graphEdges += g.EdgeCount()
		res.graphApproxMB += float64(g.ApproxBytes()) / (1 << 20)
	}
	res.hash = sha256.Sum256(res.out)
	if rec != nil {
		res.fed.wireBytes = p.rxBytes() - p.rx0
		for z, tel := range p.stel {
			res.fed.zoneStageS[z] = readStages(tel).since(p.stages0[z])
			res.openIntervals += tel.Comp.OpenLocations.Value() + tel.Comp.OpenContainments.Value()
			res.fed.ackRTTMS = append(res.fed.ackRTTMS, srcs[z].rttMS...)
		}
	}
	res.liveHeapMB = liveHeapMB() - heapBefore
	runtime.KeepAlive(coord)
	runtime.KeepAlive(workers)
	return res, nil
}

// replayCluster runs one pass of a cluster workload: the timed section
// twice, each time through a fresh cluster. The free-running replay gives
// the pass its wall clock, segments and counts, the gated one its epoch
// latencies; the two must produce the same bytes. A traced pass is the
// free-running replay alone.
func replayCluster(tr *trace, rec *recorder) (*passResult, error) {
	res, err := replayClusterOnce(tr, rec, false)
	if err != nil || rec != nil {
		return res, err
	}
	gated, err := replayClusterOnce(tr, nil, true)
	if err != nil {
		return nil, fmt.Errorf("gated replay: %w", err)
	}
	if gated.hash != res.hash {
		return nil, fmt.Errorf("gated replay output differs from the free-running replay's")
	}
	res.LatMS = gated.LatMS
	res.SetupS = min(res.SetupS, gated.SetupS)
	return res, nil
}

// zoneSlates is the cluster's reference computation: every zone's
// substrate run in-process over the same batches with its per-epoch
// output kept, and the serial Merger's stream over those outputs.
type zoneSlates struct {
	// slates[i][z] is zone z's output for epoch index i; the last slate
	// is the closing (Fin) epoch.
	slates [][][]event.Event
	hash   [sha256.Size]byte // of the encoded serial-Merger stream
	kept   int64             // timed readings left after dedup, over all zones
	// nodesInferred and nodesCached total the zones' inference passes
	// over the timed section.
	nodesInferred, nodesCached int64
}

func referenceMerge(tr *trace) (*zoneSlates, error) {
	nz := tr.w.Zones
	ramp, total := int(tr.w.Ramp), int(tr.end)
	ref := &zoneSlates{slates: make([][][]event.Event, total+1)}
	for i := range ref.slates {
		ref.slates[i] = make([][]event.Event, nz)
	}
	type zoneCounts struct{ kept, inferred, cached int64 }
	counts := make([]zoneCounts, nz)
	errs := make([]error, nz)
	var wg sync.WaitGroup
	for z := 0; z < nz; z++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub, err := core.New(substrateConfig(tr.zoneReaders[z], tr.locs, tr.w.Level))
			if err != nil {
				errs[z] = err
				return
			}
			for i, src := range tr.zoneBatches[z] {
				b := src.Clone()
				out, err := sub.ProcessBatch(b)
				if err != nil {
					errs[z] = fmt.Errorf("zone %d epoch %d: %w", z, src.Time, err)
					return
				}
				ref.slates[i][z] = append([]event.Event(nil), out.Events...)
				if i >= ramp {
					st := sub.InferStats()
					counts[z].kept += int64(b.Total())
					counts[z].inferred += int64(st.NodesInferred)
					counts[z].cached += int64(st.NodesCached)
				}
			}
			ref.slates[total][z] = sub.Close(tr.end + 1)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, c := range counts {
		ref.kept += c.kept
		ref.nodesInferred += c.inferred
		ref.nodesCached += c.cached
	}

	m := federate.NewMerger()
	h := sha256.New()
	var buf []byte
	for i, slate := range ref.slates {
		var merged []event.Event
		for z, evs := range slate {
			out, err := m.Ingest(federate.ZoneID(z), evs)
			if err != nil {
				return nil, fmt.Errorf("reference merge, epoch index %d: %w", i, err)
			}
			merged = append(merged, out...)
		}
		if i == total {
			merged = append(merged, m.Close(tr.end+1)...)
		} else {
			merged = append(merged, m.EndEpoch()...)
		}
		buf = buf[:0]
		for _, e := range merged {
			var err error
			if buf, err = event.Append(buf, e); err != nil {
				return nil, err
			}
		}
		h.Write(buf)
	}
	h.Sum(ref.hash[:0])
	return ref, nil
}

// layerReplay is the cost of the merge and the frame codec alone, from
// replaying the captured timed-section slates through the layers' public
// entry points.
type layerReplay struct {
	events                   int64 // zone output events replayed
	mergeS, encodeS, decodeS float64
}

func replayLayers(tr *trace, ref *zoneSlates) (layerReplay, error) {
	var lr layerReplay
	ramp, total := int(tr.w.Ramp), int(tr.end)
	pm := federate.NewParallelMerger(0)
	// The merger needs the ramp to hold the state the timed epochs merge
	// against.
	for i, slate := range ref.slates[:ramp] {
		if _, err := pm.MergeEpoch(model.Epoch(i+1), slate, false); err != nil {
			return lr, err
		}
	}
	start := time.Now()
	for i := ramp; i < total; i++ {
		if _, err := pm.MergeEpoch(model.Epoch(i+1), ref.slates[i], false); err != nil {
			return lr, err
		}
	}
	lr.mergeS = time.Since(start).Seconds()

	var frames [][]byte
	start = time.Now()
	for i := ramp; i < total; i++ {
		for _, evs := range ref.slates[i] {
			f, err := stream.AppendFrame(nil, &stream.Frame{Type: stream.FrameEpochCols, Epoch: model.Epoch(i + 1), Events: evs})
			if err != nil {
				return lr, err
			}
			frames = append(frames, f)
			lr.events += int64(len(evs))
		}
	}
	lr.encodeS = time.Since(start).Seconds()

	var scratch []event.Event
	start = time.Now()
	for _, f := range frames {
		fr, _, err := stream.ReadFrameCountInto(bytes.NewReader(f), scratch[:0])
		if err != nil {
			return lr, err
		}
		scratch = fr.Events
	}
	lr.decodeS = time.Since(start).Seconds()
	return lr, nil
}
