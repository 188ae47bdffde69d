package federate_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"spire/internal/core"
	"spire/internal/event"
	"spire/internal/federate"
	"spire/internal/inference"
	"spire/internal/model"
	"spire/internal/sim"
)

// clusterSimConfig is the shared world for the distributed-deployment
// tests: small enough to run in CI, busy enough to exercise cross-zone
// handoffs (every case crosses every zone boundary on its way through).
func clusterSimConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Duration = 1200
	cfg.PalletInterval = 150
	cfg.CasesMin, cfg.CasesMax = 2, 3
	cfg.ItemsPerCase = 4
	cfg.ShelfTime = 250
	cfg.ShelfPeriod = 10
	cfg.TheftInterval = 400
	cfg.ReadRate = 1.0
	return cfg
}

func substrateFor(t *testing.T, readers []model.Reader, locs []model.Location, lvl core.CompressionLevel) *core.Substrate {
	t.Helper()
	sub, err := core.New(core.Config{
		Readers:     readers,
		Locations:   locs,
		Inference:   inference.DefaultConfig(),
		Compression: lvl,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

// runSingleSubstrate interprets the whole warehouse with one substrate.
func runSingleSubstrate(t *testing.T, cfg sim.Config, lvl core.CompressionLevel) []event.Event {
	t.Helper()
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub := substrateFor(t, s.Readers(), s.Locations(), lvl)
	var out []event.Event
	for !s.Done() {
		o, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		eo, err := sub.ProcessEpoch(o)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, eo.Events...)
	}
	return append(out, sub.Close(s.Now()+1)...)
}

// runInProcessFederated interprets the warehouse with one substrate per
// zone and merges the streams through the Merger directly (no network) —
// the reference the networked cluster must reproduce exactly.
func runInProcessFederated(t *testing.T, cfg sim.Config, lvl core.CompressionLevel, nZones int) []event.Event {
	t.Helper()
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	zones, err := s.PartitionZones(nZones)
	if err != nil {
		t.Fatal(err)
	}
	zoneOf := sim.ZoneOfReaders(zones)
	subs := make([]*core.Substrate, nZones)
	for z := range subs {
		subs[z] = substrateFor(t, zones[z], s.Locations(), lvl)
	}
	m := federate.NewMerger()
	var merged []event.Event
	for !s.Done() {
		o, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		split := sim.SplitObservation(o, zoneOf, nZones)
		for z := 0; z < nZones; z++ {
			eo, err := subs[z].ProcessEpoch(split[z])
			if err != nil {
				t.Fatal(err)
			}
			out, err := m.Ingest(federate.ZoneID(z), eo.Events)
			if err != nil {
				t.Fatal(err)
			}
			merged = append(merged, out...)
		}
		merged = append(merged, m.EndEpoch()...)
	}
	end := s.Now() + 1
	for z := 0; z < nZones; z++ {
		out, err := m.Ingest(federate.ZoneID(z), subs[z].Close(end))
		if err != nil {
			t.Fatal(err)
		}
		merged = append(merged, out...)
	}
	return append(merged, m.Close(end)...)
}

func diffCanonical(t *testing.T, label string, want, got []event.Event) {
	t.Helper()
	event.CanonicalSort(want)
	event.CanonicalSort(got)
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		if want[i] != got[i] {
			t.Fatalf("%s: event %d differs:\n  want %v\n  got  %v", label, i, want[i], got[i])
		}
	}
	if len(want) != len(got) {
		t.Fatalf("%s: %d events, want %d (first %d equal)", label, len(got), len(want), n)
	}
}

// errKilled simulates a zone worker crash: its batch source fails
// mid-stream, aborting RunBatches the way a killed process would stop it.
var errKilled = errors.New("worker killed")

// killSource passes through the zone's batches until the kill epoch,
// then fails.
type killSource struct {
	inner  federate.BatchSource
	killAt model.Epoch
}

func (k *killSource) NextBatch() (*model.Batch, error) {
	b, err := k.inner.NextBatch()
	if err != nil {
		return nil, err
	}
	if k.killAt != model.EpochNone && b.Time >= k.killAt {
		return nil, errKilled
	}
	return b, nil
}

// zoneFeed builds one zone's batch source over a fresh simulator.
type zoneFeed func(s *sim.Simulator, zones [][]model.Reader, zone int) (federate.BatchSource, error)

// stepFeed is the zone's share of the full-warehouse Step trace — the
// trace runInProcessFederated splits — staged into a reused batch. Every
// zone worker steps its own simulator instance from the same seed.
func stepFeed(s *sim.Simulator, zones [][]model.Reader, zone int) (federate.BatchSource, error) {
	return &stepSource{s: s, zoneOf: sim.ZoneOfReaders(zones), zones: len(zones), zone: zone}, nil
}

type stepSource struct {
	s      *sim.Simulator
	zoneOf map[model.ReaderID]int
	zones  int
	zone   int
	b      model.Batch
}

func (z *stepSource) NextBatch() (*model.Batch, error) {
	if z.s.Done() {
		return nil, io.EOF
	}
	o, err := z.s.Step()
	if err != nil {
		return nil, err
	}
	return z.b.FromObservation(sim.SplitObservation(o, z.zoneOf, z.zones)[z.zone]), nil
}

// zoneBatchFeed is the zone's columnar zone-batch stream
// (sim.PartitionZonesBatch): only the zone's own readers are observed.
func zoneBatchFeed(s *sim.Simulator, zones [][]model.Reader, zone int) (federate.BatchSource, error) {
	streams, err := s.PartitionZonesBatch(len(zones))
	if err != nil {
		return nil, err
	}
	return streams[zone], nil
}

// frameLimitConn injects a disconnect at a frame boundary: after `limit`
// successful writes (the worker writes exactly one frame per Write
// call, Hello included) every further write fails and the connection
// dies. With limit 2, every connection carries the handshake plus one
// epoch frame — the redial-at-every-frame-boundary regression for the
// replay buffer: each reconnect replays owned wire bytes while the
// worker's column scratch is already rebuilding the next epoch.
type frameLimitConn struct {
	net.Conn
	mu     sync.Mutex
	writes int
	limit  int
}

func (c *frameLimitConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.writes >= c.limit {
		c.Conn.Close()
		return 0, errors.New("injected disconnect at frame boundary")
	}
	c.writes++
	return c.Conn.Write(p)
}

// runZoneWorker drives one zone of the networked cluster to completion.
// If killAt is set, the worker "crashes" at that epoch and a fresh
// worker resumes from the on-disk checkpoint, replaying the
// deterministic simulation. framesPerConn > 0 kills every connection
// after that many frames.
func runZoneWorker(cfg sim.Config, lvl core.CompressionLevel, feed zoneFeed, nZones, zone int, addr, ckpt string, killAt model.Epoch, framesPerConn int) error {
	attempt := func(kill model.Epoch) error {
		s, err := sim.New(cfg)
		if err != nil {
			return err
		}
		zones, err := s.PartitionZones(nZones)
		if err != nil {
			return err
		}
		src, err := feed(s, zones, zone)
		if err != nil {
			return err
		}
		var sub *core.Substrate
		if _, err := os.Stat(ckpt); err == nil {
			if sub, err = core.RestoreSubstrateFromFile(ckpt); err != nil {
				return fmt.Errorf("zone %d: restore: %w", zone, err)
			}
		} else {
			sub, err = core.New(core.Config{
				Readers:     zones[zone],
				Locations:   s.Locations(),
				Inference:   inference.DefaultConfig(),
				Compression: lvl,
			})
			if err != nil {
				return err
			}
		}
		wcfg := federate.WorkerConfig{
			Zone:            federate.ZoneID(zone),
			Addr:            addr,
			Substrate:       sub,
			CheckpointPath:  ckpt,
			CheckpointEvery: 100,
			BaseBackoff:     time.Millisecond,
			MaxBackoff:      20 * time.Millisecond,
		}
		if framesPerConn > 0 {
			wcfg.Dial = func(ctx context.Context) (net.Conn, error) {
				var d net.Dialer
				c, err := d.DialContext(ctx, "tcp", addr)
				if err != nil {
					return nil, err
				}
				return &frameLimitConn{Conn: c, limit: framesPerConn}, nil
			}
		}
		w, err := federate.NewWorker(wcfg)
		if err != nil {
			return err
		}
		if kill != model.EpochNone {
			src = &killSource{inner: src, killAt: kill}
		}
		return w.RunBatches(context.Background(), src)
	}
	if killAt != model.EpochNone {
		if err := attempt(killAt); !errors.Is(err, errKilled) {
			return fmt.Errorf("zone %d: expected kill, got %v", zone, err)
		}
		// The kill epochs are chosen past the checkpoint cadence, so the
		// second attempt must resume from a persisted checkpoint — not
		// silently recompute from scratch.
		if _, err := os.Stat(ckpt); err != nil {
			return fmt.Errorf("zone %d: no checkpoint persisted before kill: %v", zone, err)
		}
	}
	return attempt(model.EpochNone)
}

// runNetworkedCluster runs the full cluster — coordinator on loopback
// TCP, one worker per zone on the given feed — and returns the merged
// stream. killZone, if ≥ 0, is crash-killed at killAt and resumed from its
// checkpoint.
func runNetworkedCluster(t *testing.T, cfg sim.Config, lvl core.CompressionLevel, feed zoneFeed, nZones, killZone int, killAt model.Epoch, framesPerConn int) []event.Event {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var merged []event.Event
	coord, err := federate.NewCoordinator(federate.CoordinatorConfig{
		Zones:            nZones,
		StragglerTimeout: time.Minute,
		Sink: func(_ model.Epoch, evs []event.Event) error {
			merged = append(merged, evs...)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- coord.Serve(context.Background(), ln) }()

	dir := t.TempDir()
	workerErrs := make([]error, nZones)
	var wg sync.WaitGroup
	for z := 0; z < nZones; z++ {
		wg.Add(1)
		go func(z int) {
			defer wg.Done()
			kill := model.EpochNone
			if z == killZone {
				kill = killAt
			}
			ckpt := filepath.Join(dir, fmt.Sprintf("zone-%d.ckpt", z))
			workerErrs[z] = runZoneWorker(cfg, lvl, feed, nZones, z, ln.Addr().String(), ckpt, kill, framesPerConn)
		}(z)
	}
	wg.Wait()
	for z, err := range workerErrs {
		if err != nil {
			t.Fatalf("zone %d worker: %v", z, err)
		}
	}
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("coordinator: %v", err)
		}
	case <-time.After(time.Minute):
		t.Fatal("coordinator did not finish after workers exited")
	}
	return merged
}

// TestNetworkedClusterMatchesInProcess is the keystone: an N-zone
// cluster over loopback TCP produces a merged stream byte-identical to
// the in-process federated reference on the same world and seed — the
// framing, acks, epoch barrier, and reconnect machinery add and lose
// nothing. N=2 runs plain; N=4 additionally crash-kills a zone
// mid-stream and resumes it from its checkpoint. Both compression levels
// get one plain and one kill-and-resume configuration.
func TestNetworkedClusterMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster test is not short")
	}
	cfg := clusterSimConfig()
	cases := []struct {
		lvl      core.CompressionLevel
		zones    int
		killZone int
		killAt   model.Epoch
	}{
		{core.Level1, 2, -1, model.EpochNone},
		{core.Level1, 4, 1, 700},
		{core.Level2, 2, 0, 650},
		{core.Level2, 4, -1, model.EpochNone},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("level%d-zones%d", tc.lvl, tc.zones)
		if tc.killZone >= 0 {
			name += fmt.Sprintf("-kill%d", tc.killZone)
		}
		t.Run(name, func(t *testing.T) {
			want := runInProcessFederated(t, cfg, tc.lvl, tc.zones)
			got := runNetworkedCluster(t, cfg, tc.lvl, stepFeed, tc.zones, tc.killZone, tc.killAt, 0)
			if err := event.CheckWellFormed(got, true); err != nil {
				t.Fatalf("merged stream: %v", err)
			}
			if !slices.Equal(want, got) {
				diffCanonical(t, "cluster", want, got)
				t.Fatalf("streams differ only in order: %d events", len(got))
			}
		})
	}
}

// streamAgreement is the multiset overlap between two streams, as a
// fraction of the larger one.
func streamAgreement(a, b []event.Event) float64 {
	counts := make(map[event.Event]int, len(a))
	for _, e := range a {
		counts[e]++
	}
	common := 0
	for _, e := range b {
		if counts[e] > 0 {
			counts[e]--
			common++
		}
	}
	denom := len(a)
	if len(b) > denom {
		denom = len(b)
	}
	if denom == 0 {
		return 1
	}
	return float64(common) / float64(denom)
}

// TestFederatedMatchesSingleSubstrate compares in-process federated
// merges against the single-substrate interpretation of the same world.
//
// Byte-equivalence is not attainable here and the test does not ask for
// it: SPIRE's inference is a global probabilistic computation, so a zone
// substrate that only sees its own readers reaches different verdicts in
// genuinely ambiguous situations (several cases co-located on one shelf
// can "capture" each other's items differently depending on what else is
// in the graph). The differential fuzz target pins exact equivalence in
// the observability-complete regime where it is provable; here the
// merged stream must be well-formed and agree with the single-substrate
// stream on the overwhelming majority of events. The floors sit a few
// points under measured agreement (0.94/0.84 for level 1 at 2/4 zones,
// 0.85/0.67 for level 2) to catch regressions without pinning noise.
func TestFederatedMatchesSingleSubstrate(t *testing.T) {
	cfg := clusterSimConfig()
	floors := map[core.CompressionLevel]map[int]float64{
		core.Level1: {2: 0.90, 4: 0.78},
		core.Level2: {2: 0.78, 4: 0.60},
	}
	for _, lvl := range []core.CompressionLevel{core.Level1, core.Level2} {
		single := runSingleSubstrate(t, cfg, lvl)
		for _, nz := range []int{2, 4} {
			merged := runInProcessFederated(t, cfg, lvl, nz)
			if err := event.CheckWellFormed(merged, true); err != nil {
				t.Fatalf("level %d zones %d: merged stream: %v", lvl, nz, err)
			}
			got := streamAgreement(single, merged)
			t.Logf("level %d zones %d: single %d events, merged %d events, agreement %.3f",
				lvl, nz, len(single), len(merged), got)
			if floor := floors[lvl][nz]; got < floor {
				t.Errorf("level %d zones %d: agreement %.3f below floor %.2f", lvl, nz, got, floor)
			}
		}
	}
}
