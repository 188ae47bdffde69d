package experiments

import (
	"fmt"
	"io"
	"sync"
	"time"

	"spire/internal/core"
	"spire/internal/event"
	"spire/internal/federate"
	"spire/internal/inference"
	"spire/internal/model"
	"spire/internal/sim"
	"spire/internal/telemetry"
)

// benchZonesConfig is the workload for the federated-scaling benchmark: a
// busier warehouse than the default Section VI-B world (shorter pallet
// interval, more shelves) so that every zone substrate has real work and
// the zone counts up to 8 can each own at least one location.
func benchZonesConfig(quick bool) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Duration = 12_000
	if quick {
		cfg.Duration = 3_000
	}
	cfg.PalletInterval = 150
	cfg.CasesMin, cfg.CasesMax = 3, 4
	cfg.ItemsPerCase = 6
	cfg.NumShelves = 8
	cfg.ShelfTime = 400
	cfg.ShelfPeriod = 20
	cfg.TheftInterval = 500
	cfg.ReadRate = 0.95
	return cfg
}

func benchZonesSubstrate(readers []model.Reader, locs []model.Location) (*core.Substrate, error) {
	return core.New(core.Config{
		Readers:     readers,
		Locations:   locs,
		Inference:   inference.DefaultConfig(),
		Compression: core.Level1,
	})
}

// runZonesSingle times the single-substrate interpretation of the world
// and returns (readings, merged events, elapsed).
func runZonesSingle(cfg sim.Config) (int64, int64, time.Duration, error) {
	s, err := sim.New(cfg)
	if err != nil {
		return 0, 0, 0, err
	}
	sub, err := benchZonesSubstrate(s.Readers(), s.Locations())
	if err != nil {
		return 0, 0, 0, err
	}
	var readings, events int64
	start := time.Now()
	for !s.Done() {
		o, err := s.Step()
		if err != nil {
			return 0, 0, 0, err
		}
		readings += int64(o.Total())
		eo, err := sub.ProcessEpoch(o)
		if err != nil {
			return 0, 0, 0, err
		}
		events += int64(len(eo.Events))
	}
	events += int64(len(sub.Close(s.Now() + 1)))
	return readings, events, time.Since(start), nil
}

// zoneSlate is one epoch's batches from every zone, stamped with the
// epoch — the merge-only measurements replay slates through both merger
// implementations, and the parallel one needs the true epoch for its
// barrier precondition.
type zoneSlate struct {
	epoch   model.Epoch
	batches [][]event.Event
}

// runZonesFederated times the in-process federated interpretation: one
// substrate per zone, each epoch's zone substrates stepped concurrently
// (as the cluster's worker processes would run), the merger driven
// serially in fixed zone order. When capture is non-nil it receives every
// per-epoch slate of zone batches, for the merge-only measurement.
func runZonesFederated(cfg sim.Config, nz int, capture *[]zoneSlate) (int64, int64, time.Duration, error) {
	s, err := sim.New(cfg)
	if err != nil {
		return 0, 0, 0, err
	}
	zones, err := s.PartitionZones(nz)
	if err != nil {
		return 0, 0, 0, err
	}
	zoneOf := sim.ZoneOfReaders(zones)
	subs := make([]*core.Substrate, nz)
	for z := range subs {
		if subs[z], err = benchZonesSubstrate(zones[z], s.Locations()); err != nil {
			return 0, 0, 0, err
		}
	}
	m := federate.NewMerger()
	batches := make([][]event.Event, nz)
	errs := make([]error, nz)
	var readings, events int64
	start := time.Now()
	for !s.Done() {
		o, err := s.Step()
		if err != nil {
			return 0, 0, 0, err
		}
		readings += int64(o.Total())
		split := sim.SplitObservation(o, zoneOf, nz)
		var wg sync.WaitGroup
		for z := 0; z < nz; z++ {
			wg.Add(1)
			go func(z int) {
				defer wg.Done()
				eo, err := subs[z].ProcessEpoch(split[z])
				if err != nil {
					errs[z] = err
					return
				}
				batches[z] = eo.Events
			}(z)
		}
		wg.Wait()
		for z := 0; z < nz; z++ {
			if errs[z] != nil {
				return 0, 0, 0, errs[z]
			}
			out, err := m.Ingest(federate.ZoneID(z), batches[z])
			if err != nil {
				return 0, 0, 0, err
			}
			events += int64(len(out))
		}
		events += int64(len(m.EndEpoch()))
		if capture != nil {
			slate := make([][]event.Event, nz)
			for z := range slate {
				slate[z] = append([]event.Event(nil), batches[z]...)
			}
			*capture = append(*capture, zoneSlate{epoch: o.Time, batches: slate})
		}
	}
	end := s.Now() + 1
	closing := make([][]event.Event, nz)
	for z := 0; z < nz; z++ {
		closing[z] = subs[z].Close(end)
		out, err := m.Ingest(federate.ZoneID(z), closing[z])
		if err != nil {
			return 0, 0, 0, err
		}
		events += int64(len(out))
	}
	events += int64(len(m.Close(end)))
	if capture != nil {
		*capture = append(*capture, zoneSlate{epoch: end, batches: closing})
	}
	return readings, events, time.Since(start), nil
}

// measureMergeOnly replays the captured per-epoch zone batches through
// fresh Mergers until at least minEvents input events have been ingested,
// and returns events per second of pure merge work — the coordinator-side
// serial cost a cluster pays on top of the zones' parallel interpretation.
func measureMergeOnly(capture []zoneSlate, nz int, minEvents int64) (float64, error) {
	var events int64
	var elapsed time.Duration
	for events < minEvents {
		m := federate.NewMerger()
		start := time.Now()
		for i, slate := range capture {
			for z := 0; z < nz; z++ {
				if _, err := m.Ingest(federate.ZoneID(z), slate.batches[z]); err != nil {
					return 0, err
				}
			}
			if i < len(capture)-1 {
				m.EndEpoch()
			}
		}
		elapsed += time.Since(start)
		for _, slate := range capture {
			for _, b := range slate.batches {
				events += int64(len(b))
			}
		}
	}
	return float64(events) / elapsed.Seconds(), nil
}

// measureMergeParallel replays the same captured slates through the
// sharded ParallelMerger, one MergeEpoch per slate (the coordinator's
// batch-feed barrier shape), and returns events per second. It fails if
// any call fell back to the serial walk — the measurement must time the
// parallel path.
func measureMergeParallel(capture []zoneSlate, minEvents int64) (float64, error) {
	var events int64
	var elapsed time.Duration
	for events < minEvents {
		pm := federate.NewParallelMerger(0)
		start := time.Now()
		for i, slate := range capture {
			if _, err := pm.MergeEpoch(slate.epoch, slate.batches, i == len(capture)-1); err != nil {
				return 0, err
			}
		}
		elapsed += time.Since(start)
		if n := pm.SerialFallbacks(); n > 0 {
			return 0, fmt.Errorf("parallel merge fell back to the serial walk %d times", n)
		}
		for _, slate := range capture {
			for _, b := range slate.batches {
				events += int64(len(b))
			}
		}
	}
	return float64(events) / elapsed.Seconds(), nil
}

// measureMergeInstrumented repeats the merge-only measurement with live
// coordinator instruments attached, performing the same per-batch and
// per-epoch metric work the Coordinator's deliver and merge loops do:
// zone epoch/event counters, the barrier gauge and wait histogram, and
// the merged-stream totals. The delta against the MergerIngest row is
// the telemetry tax on the serial coordinator path, which spirebenchdiff
// gates so the cluster-health plane cannot quietly grow into the merge
// stage's budget.
func measureMergeInstrumented(capture []zoneSlate, nz int, minEvents int64) (float64, error) {
	reg := telemetry.NewRegistry()
	tel := federate.NewCoordinatorInstruments(reg, nz)
	var events int64
	var elapsed time.Duration
	for events < minEvents {
		m := federate.NewMerger()
		start := time.Now()
		for i, slate := range capture {
			epochStart := time.Now()
			tel.BarrierEpoch.Set(int64(i))
			for z := 0; z < nz; z++ {
				out, err := m.Ingest(federate.ZoneID(z), slate.batches[z])
				if err != nil {
					return 0, err
				}
				tel.ZoneEpochs[z].Inc()
				tel.ZoneEvents[z].Add(int64(len(slate.batches[z])))
				tel.MergedEvents.Add(int64(len(out)))
			}
			if i < len(capture)-1 {
				tel.MergedEvents.Add(int64(len(m.EndEpoch())))
			}
			tel.MergedEpochs.Inc()
			tel.BarrierWait.Observe(time.Since(epochStart).Seconds())
		}
		elapsed += time.Since(start)
		for _, slate := range capture {
			for _, b := range slate.batches {
				events += int64(len(b))
			}
		}
	}
	return float64(events) / elapsed.Seconds(), nil
}

// runZonesWorkerFeed times one zone worker's ingest over the columnar
// zone-batch feed: the simulation observes only this zone's readers, and
// the substrate ingests the columns without per-reading staging. Returns
// the zone's own readings and the wall time.
func runZonesWorkerFeed(cfg sim.Config, nz, zone int) (int64, time.Duration, error) {
	s, err := sim.New(cfg)
	if err != nil {
		return 0, 0, err
	}
	zones, err := s.PartitionZones(nz)
	if err != nil {
		return 0, 0, err
	}
	streams, err := s.PartitionZonesBatch(nz)
	if err != nil {
		return 0, 0, err
	}
	sub, err := benchZonesSubstrate(zones[zone], s.Locations())
	if err != nil {
		return 0, 0, err
	}
	var readings int64
	start := time.Now()
	for {
		b, err := streams[zone].NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, 0, err
		}
		readings += int64(b.Total())
		if _, err := sub.ProcessBatch(b); err != nil {
			return 0, 0, err
		}
	}
	sub.Close(s.Now() + 1)
	return readings, time.Since(start), nil
}

// BenchZones measures federated scaling: the same warehouse interpreted
// by one substrate, then by 2..8 zone substrates stepped concurrently and
// merged through the federation Merger, as tags/sec against zone count. A
// second table isolates the merge stage — the serial coordinator-side
// reconciliation cost per input event — measured over captured zone
// batches, which is the stable quantity spirebenchdiff gates (the scaling
// rows time genuinely parallel work and depend on the host's idle cores).
func BenchZones(o Options) ([]*Table, error) {
	cfg := benchZonesConfig(o.Quick)
	zoneCounts := []int{2, 4, 8}
	minMergeEvents := int64(1_000_000)
	if o.Quick {
		zoneCounts = []int{2, 4}
		minMergeEvents = 200_000
	}

	main := &Table{
		ID:        "bench-zones",
		Title:     "Federated scaling: interpretation throughput (readings/s) vs zones",
		RowHeader: "zones",
		Columns:   []string{"read/s", "s/Mread", "speedup", "events"},
	}
	merge := &Table{
		ID:        "zones-merge",
		Title:     "Federation merge stage (coordinator-side reconciliation)",
		RowHeader: "stage",
		Columns:   []string{"Mevent/s", "s/Mevent"},
	}
	feedTbl := &Table{
		ID:        "zones-worker-feed",
		Title:     "Zone worker ingest over the columnar batch feed (zone 0's cost per million of its own readings)",
		RowHeader: "zones",
		Columns:   []string{"s/Mread", "zone Mreads"},
	}

	readings, events, elapsed, err := runZonesSingle(cfg)
	if err != nil {
		return nil, err
	}
	base := float64(readings) / elapsed.Seconds()
	main.AddRow("single", base, 1e6/base, 1.0, float64(events))

	var capture []zoneSlate
	for _, nz := range zoneCounts {
		var sink *[]zoneSlate
		if nz == zoneCounts[len(zoneCounts)-1] {
			sink = &capture
		}
		readings, events, elapsed, err := runZonesFederated(cfg, nz, sink)
		if err != nil {
			return nil, fmt.Errorf("zones=%d: %w", nz, err)
		}
		rps := float64(readings) / elapsed.Seconds()
		main.AddRow(fmt.Sprintf("%d", nz), rps, 1e6/rps, rps/base, float64(events))
	}

	nz := zoneCounts[len(zoneCounts)-1]
	eps, err := measureMergeOnly(capture, nz, minMergeEvents)
	if err != nil {
		return nil, err
	}
	merge.AddRow("MergerIngest", eps/1e6, 1e6/eps)
	ieps, err := measureMergeInstrumented(capture, nz, minMergeEvents)
	if err != nil {
		return nil, err
	}
	merge.AddRow("MergerIngest+telemetry", ieps/1e6, 1e6/ieps)
	peps, err := measureMergeParallel(capture, minMergeEvents)
	if err != nil {
		return nil, err
	}
	merge.AddRow("ParallelMerge", peps/1e6, 1e6/peps)

	for _, fz := range zoneCounts {
		readings, elapsed, err := runZonesWorkerFeed(cfg, fz, 0)
		if err != nil {
			return nil, fmt.Errorf("worker feed zones=%d: %w", fz, err)
		}
		mreads := float64(readings) / 1e6
		feedTbl.AddRow(fmt.Sprintf("%d", fz), elapsed.Seconds()/mreads, mreads)
	}

	main.Notes = append(main.Notes,
		"zone substrates step concurrently (one goroutine per zone, as cluster worker processes would); the merger runs serially after each epoch",
		"speedup is relative to the single-substrate row and is informational, not gated; on small worlds it sits below 1 — per-epoch fork-join and the merge pass outweigh the parallel interpretation when epochs carry few readings",
		"the distributed win is per-machine load, not single-host wall clock: each zone interprets only its own readers' share of the readings",
		"events counts the merged output stream; it grows with zones because cross-zone handoffs close and reopen intervals at the boundary")
	merge.Notes = append(merge.Notes,
		fmt.Sprintf("replays the captured %d-zone batches through fresh Mergers; serial, so the gated baseline compares across hosts", nz),
		"the +telemetry row repeats the replay with live CoordinatorInstruments doing the per-batch and per-epoch metric work of the coordinator's merge path; the delta is the gated telemetry tax",
		"the ParallelMerge row replays the same slates through the sharded merger, one MergeEpoch per epoch barrier; its advantage over the serial rows depends on idle cores and per-epoch batch size — on one core or tiny epochs the routing, goroutine fork-join, and k-way merge make it slower than the serial walk")
	feedTbl.Notes = append(feedTbl.Notes,
		"each row times zone 0 of an N-zone deployment ingesting its feed alone, normalized by that zone's own readings",
		"sim.PartitionZonesBatch observes only the zone's readers into reused columns and the substrate ingests them directly, so the observation work scales with the zone's own traffic, not the deployment's population; residual growth across rows is the per-epoch substrate overhead and the global world advance amortized over fewer own readings")
	return []*Table{main, merge, feedTbl}, nil
}
