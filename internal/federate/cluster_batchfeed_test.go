package federate_test

import (
	"fmt"
	"io"
	"slices"
	"testing"

	"spire/internal/core"
	"spire/internal/event"
	"spire/internal/federate"
	"spire/internal/model"
	"spire/internal/sim"
)

// The batch-feed cluster keystone: zone workers fed by the columnar
// zone-batch source (sim.PartitionZonesBatch + Worker.RunBatches) over
// loopback TCP, merged by the coordinator's sharded parallel merger,
// must be byte-identical to the in-process batch-feed reference merged
// through the serial oracle. Zone-batch observation is its own
// deterministic trace (per-reader RNG streams, not the Step trace), so
// the reference runs the same feed — the comparison isolates the wire,
// the columnar frames, the replay buffer, and the merge path.

// runInProcessBatchFederated is the reference: one substrate per zone
// fed from the shared zone-batch feed, merged through the serial Merger.
func runInProcessBatchFederated(t *testing.T, cfg sim.Config, lvl core.CompressionLevel, nZones int) []event.Event {
	t.Helper()
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	zones, err := s.PartitionZones(nZones)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := s.PartitionZonesBatch(nZones)
	if err != nil {
		t.Fatal(err)
	}
	subs := make([]*core.Substrate, nZones)
	for z := range subs {
		subs[z] = substrateFor(t, zones[z], s.Locations(), lvl)
	}
	m := federate.NewMerger()
	var merged []event.Event
	for {
		eof := false
		for z := 0; z < nZones; z++ {
			b, err := streams[z].NextBatch()
			if err == io.EOF {
				eof = true
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			eo, err := subs[z].ProcessBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			out, err := m.Ingest(federate.ZoneID(z), eo.Events)
			if err != nil {
				t.Fatal(err)
			}
			merged = append(merged, out...)
		}
		if eof {
			break
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

// TestBatchFeedClusterMatchesInProcess is the batch-feed keystone: the
// networked cluster — columnar frames, zero-copy submits, parallel
// coordinator merge — reproduces the in-process serial-merged reference
// byte for byte at N∈{2,4} and both compression levels, including a
// crash-killed zone resuming from its checkpoint.
func TestBatchFeedClusterMatchesInProcess(t *testing.T) {
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
			want := runInProcessBatchFederated(t, cfg, tc.lvl, tc.zones)
			got := runNetworkedCluster(t, cfg, tc.lvl, zoneBatchFeed, tc.zones, tc.killZone, tc.killAt, 0)
			if err := event.CheckWellFormed(got, true); err != nil {
				t.Fatalf("merged stream: %v", err)
			}
			if !slices.Equal(want, got) {
				diffCanonical(t, "batch cluster", want, got)
				t.Fatalf("streams differ only in order: %d events", len(got))
			}
		})
	}
}

// TestBatchFeedClusterDisconnectEveryFrame injects a disconnect at
// every frame boundary: each worker connection carries the handshake
// plus exactly one epoch frame before dying, so every epoch is
// delivered through a redial-and-replay. The merged stream must still
// match the in-process reference byte for byte — the regression pin for
// the replay buffer's owned wire bytes (a replay that re-read a column
// or scratch slice the next epoch is already rewriting would corrupt
// exactly this run).
func TestBatchFeedClusterDisconnectEveryFrame(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster test is not short")
	}
	cfg := clusterSimConfig()
	cfg.Duration = 300
	want := runInProcessBatchFederated(t, cfg, core.Level2, 2)
	got := runNetworkedCluster(t, cfg, core.Level2, zoneBatchFeed, 2, -1, model.EpochNone, 2)
	if err := event.CheckWellFormed(got, true); err != nil {
		t.Fatalf("merged stream: %v", err)
	}
	if !slices.Equal(want, got) {
		diffCanonical(t, "flaky batch cluster", want, got)
		t.Fatalf("streams differ only in order: %d events", len(got))
	}
}
