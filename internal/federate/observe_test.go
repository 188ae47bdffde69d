package federate_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"spire/internal/core"
	"spire/internal/event"
	"spire/internal/federate"
	"spire/internal/inference"
	"spire/internal/model"
	"spire/internal/sim"
	"spire/internal/telemetry"
	"spire/internal/trace"
)

// observedCluster is one networked cluster run with every observability
// layer optionally attached, plus the artifacts the transparency test
// compares: the merged stream and each zone's final on-disk checkpoint,
// kept in dir.
type observedCluster struct {
	events      []event.Event
	checkpoints map[int][]byte
	dir         string

	coordReg *telemetry.Registry
	status   federate.ClusterStatus
}

// runObservedCluster runs an nZones cluster over loopback TCP with
// checkpointing on. With instrument set, the coordinator and every
// worker get a telemetry registry, a connection flight recorder, and a
// structured logger, and pollers hammer Status()/Ready() and scrape the
// registries on both sides throughout the run — the configuration the
// transparency test must prove changes nothing.
func runObservedCluster(t *testing.T, cfg sim.Config, lvl core.CompressionLevel, nZones int, instrument bool) observedCluster {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var oc observedCluster
	coord, err := federate.NewCoordinator(federate.CoordinatorConfig{
		Zones:            nZones,
		StragglerTimeout: time.Minute,
		Sink: func(_ model.Epoch, evs []event.Event) error {
			oc.events = append(oc.events, evs...)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	pollDone := make(chan struct{})
	var pollers sync.WaitGroup
	poll := func(f func()) {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			for {
				select {
				case <-pollDone:
					return
				default:
					f()
					time.Sleep(time.Millisecond)
				}
			}
		}()
	}
	if instrument {
		oc.coordReg = telemetry.NewRegistry()
		coord.Instrument(oc.coordReg)
		coord.TraceConn(trace.NewConnRecorder(64))
		poll(func() { coord.Status(); coord.Ready(); oc.coordReg.Snapshot() })
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- coord.Serve(context.Background(), ln) }()

	dir := t.TempDir()
	oc.dir = dir
	oc.checkpoints = make(map[int][]byte, nZones)
	workerErrs := make([]error, nZones)
	ckpts := make([]string, nZones)
	var wg sync.WaitGroup
	for z := 0; z < nZones; z++ {
		ckpts[z] = filepath.Join(dir, fmt.Sprintf("zone-%d.ckpt", z))
		wg.Add(1)
		go func(z int) {
			defer wg.Done()
			workerErrs[z] = func() error {
				s, err := sim.New(cfg)
				if err != nil {
					return err
				}
				zones, err := s.PartitionZones(nZones)
				if err != nil {
					return err
				}
				sub, err := core.New(core.Config{
					Readers:     zones[z],
					Locations:   s.Locations(),
					Inference:   inference.DefaultConfig(),
					Compression: lvl,
				})
				if err != nil {
					return err
				}
				wc := federate.WorkerConfig{
					Zone:            federate.ZoneID(z),
					Addr:            ln.Addr().String(),
					Substrate:       sub,
					CheckpointPath:  ckpts[z],
					CheckpointEvery: 100,
					BaseBackoff:     5 * time.Millisecond,
					MaxBackoff:      100 * time.Millisecond,
					JitterSeed:      int64(z) + 1,
				}
				if instrument {
					wc.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
				}
				w, err := federate.NewWorker(wc)
				if err != nil {
					return err
				}
				if instrument {
					reg := telemetry.NewRegistry()
					w.Instrument(reg)
					w.TraceConn(trace.NewConnRecorder(64))
					poll(func() { w.Status(); w.Ready(); reg.Snapshot() })
				}
				src, err := zoneBatchFeed(s, zones, z)
				if err != nil {
					return err
				}
				return w.RunBatches(context.Background(), src)
			}()
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
	oc.status = coord.Status()
	close(pollDone)
	pollers.Wait()
	for z := 0; z < nZones; z++ {
		data, err := os.ReadFile(ckpts[z])
		if err != nil {
			t.Fatalf("zone %d checkpoint: %v", z, err)
		}
		oc.checkpoints[z] = data
	}
	return oc
}

// TestInstrumentedClusterMatchesPlain extends the instrumentation
// transparency suite to the networked cluster: with telemetry, the
// connection flight recorder, structured logging, and concurrent status
// polling all enabled, an N-zone cluster run produces a merged stream
// AND per-zone checkpoints byte-identical to the uninstrumented run.
// The observability plane observes; it never steers.
func TestInstrumentedClusterMatchesPlain(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster test is not short")
	}
	cfg := clusterSimConfig()
	for _, nz := range []int{2, 4} {
		t.Run(fmt.Sprintf("zones%d", nz), func(t *testing.T) {
			plain := runObservedCluster(t, cfg, core.Level1, nz, false)
			inst := runObservedCluster(t, cfg, core.Level1, nz, true)
			if !slices.Equal(plain.events, inst.events) {
				diffCanonical(t, "instrumented cluster", plain.events, inst.events)
				t.Fatalf("streams differ only in order: %d events", len(inst.events))
			}
			for z := 0; z < nz; z++ {
				want, got := plain.checkpoints[z], inst.checkpoints[z]
				if !bytes.Equal(want, got) {
					t.Errorf("zone %d: instrumented checkpoint differs (%d vs %d bytes)",
						z, len(got), len(want))
				}
			}

			// The instruments must have watched the same run they left
			// untouched: merged-event count is ground truth.
			if got, want := samples(inst.coordReg)["spire_fed_merged_events_total"], int64(len(inst.events)); got != want {
				t.Errorf("spire_fed_merged_events_total = %d, want %d", got, want)
			}
			st := inst.status
			if !st.Done {
				t.Error("final ClusterStatus not done")
			}
			for _, zs := range st.Zones {
				if zs.State != federate.ZoneFinished {
					t.Errorf("zone %d final state %s, want finished", zs.Zone, zs.State)
				}
				if zs.LastEpoch != st.FinalEpoch {
					t.Errorf("zone %d last epoch %d, want final %d", zs.Zone, zs.LastEpoch, st.FinalEpoch)
				}
				if zs.Lag != 0 || zs.ReplayDepth != 0 {
					t.Errorf("zone %d final lag %d replay %d, want 0/0", zs.Zone, zs.Lag, zs.ReplayDepth)
				}
			}
		})
	}
}

// samples scrapes reg into a name{labels} → value map.
func samples(reg *telemetry.Registry) map[string]int64 {
	out := make(map[string]int64)
	for _, m := range reg.Snapshot() {
		key := m.Name
		if m.Labels != "" {
			key += "{" + m.Labels + "}"
		}
		out[key] = int64(m.Value)
	}
	return out
}

// coordStatusSamples is what the coordinator's status-backed families
// must scrape as, given the ClusterStatus they are read from.
func coordStatusSamples(st federate.ClusterStatus) map[string]int64 {
	want := map[string]int64{
		"spire_fed_merged_epochs_total": st.MergedEpochs,
		"spire_fed_merged_events_total": st.MergedEvents,
		"spire_fed_barrier_epoch":       max(int64(st.BarrierEpoch), 0),
		"spire_fed_final_linger_ms":     time.Duration(math.Round(st.FinalLingerS * 1e9)).Milliseconds(),
	}
	for _, zs := range st.Zones {
		zl := fmt.Sprintf(`{zone="%d"}`, zs.Zone)
		want["spire_fed_zone_lag_epochs"+zl] = zs.Lag
		want["spire_fed_zone_pending_batches"+zl] = int64(zs.ReplayDepth)
		want["spire_fed_zone_connected"+zl] = 0
		if zs.Connected {
			want["spire_fed_zone_connected"+zl] = 1
		}
		want["spire_fed_zone_connects_total"+zl] = zs.Connects
		want["spire_fed_straggler_near_miss_total"+zl] = zs.NearMisses
	}
	return want
}

// workerStatusSamples is the worker's counterpart of coordStatusSamples.
func workerStatusSamples(st federate.WorkerStatus) map[string]int64 {
	zl := fmt.Sprintf(`{zone="%d"}`, st.Zone)
	return map[string]int64{
		"spire_fed_worker_replay_depth" + zl:           int64(st.ReplayDepth),
		"spire_fed_worker_replay_high_water" + zl:      int64(st.ReplayHighWater),
		"spire_fed_worker_ack_window" + zl:             int64(st.AckWindow),
		"spire_fed_worker_ack_stalls_total" + zl:       st.AckStalls,
		"spire_fed_worker_connects_total" + zl:         st.Connects,
		"spire_fed_worker_connect_failures_total" + zl: st.ConnectFailures,
		"spire_fed_worker_backoff_ms" + zl:             st.BackoffMS,
	}
}

// sameStatus reports whether two cluster snapshots agree on everything
// but the age of each zone's last delivery.
func sameStatus(a, b federate.ClusterStatus) bool {
	a.Zones, b.Zones = slices.Clone(a.Zones), slices.Clone(b.Zones)
	for i := range a.Zones {
		a.Zones[i].SecondsSinceDelivery = 0
	}
	for i := range b.Zones {
		b.Zones[i].SecondsSinceDelivery = 0
	}
	return reflect.DeepEqual(a, b)
}

// checkSamples reports every wanted sample the scrape lacks or disagrees
// with. Safe to call from a poller goroutine.
func checkSamples(t *testing.T, what string, got, want map[string]int64) {
	for k, v := range want {
		if g, ok := got[k]; !ok {
			t.Errorf("%s: no scraped sample %s", what, k)
		} else if g != v {
			t.Errorf("%s: scraped %s = %d, status says %d", what, k, g, v)
		}
	}
}

// TestWorkerCheckpointDurable: a checkpointing cluster run leaves exactly
// one checkpoint per zone in the directory, with no temporary file beside
// it, and each restores to a substrate at a checkpoint epoch. (That the
// write fsyncs the file and the directory is not observable here.)
func TestWorkerCheckpointDurable(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster test is not short")
	}
	const nZones = 2
	oc := runObservedCluster(t, clusterSimConfig(), core.Level2, nZones, false)
	entries, err := os.ReadDir(oc.dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{"zone-0.ckpt", "zone-1.ckpt"}; !slices.Equal(names, want) {
		t.Fatalf("checkpoint directory holds %q, want %q", names, want)
	}
	for _, name := range names {
		sub, err := core.RestoreSubstrateFromFile(filepath.Join(oc.dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// A fresh worker snapshots every 100 epochs counted from EpochNone.
		if e := sub.LastEpoch(); e <= 0 || (e-model.EpochNone)%100 != 0 {
			t.Errorf("%s restores at epoch %d, not a checkpoint epoch", name, e)
		}
	}
}

// slowSource passes batches through until the stall epoch, then
// sleeps once — a zone whose readers go quiet long enough to alarm the
// barrier but not long enough to kill the run.
type slowSource struct {
	inner   federate.BatchSource
	stallAt model.Epoch
	stall   time.Duration
	stalled bool
}

func (s *slowSource) NextBatch() (*model.Batch, error) {
	b, err := s.inner.NextBatch()
	if err != nil {
		return nil, err
	}
	if !s.stalled && b.Time >= s.stallAt {
		s.stalled = true
		time.Sleep(s.stall)
	}
	return b, nil
}

// lockedBuffer is a goroutine-safe log sink.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestClusterStatusGroundTruthUnderStraggler injects a straggler —
// zone 1 goes silent for 700ms mid-run against a 200ms warn threshold —
// and checks the cluster plane tells the truth before the fatal
// timeout: a live ClusterStatus snapshot names the slow zone (positive
// lag, zero lag for the healthy zone, replayed batches parked at the
// barrier), the near-miss counter fires against zone 1 only, a
// warn-level log names it, and the run still completes byte-identically
// to the reference — a near-miss is a warning, not a failure. Every
// status-backed metric family scrapes as the Status() field it is read
// from, on the coordinator mid-stall and at the end, and on each worker.
func TestClusterStatusGroundTruthUnderStraggler(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster test is not short")
	}
	const (
		nZones    = 2
		slowZone  = 1
		stallAt   = 600
		stall     = 700 * time.Millisecond
		timeout   = 10 * time.Second
		warnFrac  = 0.02 // warn after 200ms of barrier silence
		ackWindow = 32
	)
	cfg := clusterSimConfig()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var logBuf lockedBuffer
	var merged []event.Event
	coord, err := federate.NewCoordinator(federate.CoordinatorConfig{
		Zones:                 nZones,
		StragglerTimeout:      timeout,
		StragglerWarnFraction: warnFrac,
		Log:                   slog.New(slog.NewTextHandler(&logBuf, nil)),
		Sink: func(_ model.Epoch, evs []event.Event) error {
			merged = append(merged, evs...)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	coordReg := telemetry.NewRegistry()
	coord.Instrument(coordReg)
	rec := trace.NewConnRecorder(64)
	coord.TraceConn(rec)
	serveErr := make(chan error, 1)
	go func() { serveErr <- coord.Serve(context.Background(), ln) }()

	// Poll the status plane through the run, keeping the snapshot with
	// the deepest observed lag — the view an operator's dashboard would
	// have shown mid-stall. A scrape between two equal Status() snapshots
	// saw that state too, so it must agree with it field for field.
	pollDone := make(chan struct{})
	var worst federate.ClusterStatus
	var stalledScrapes int
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		for {
			select {
			case <-pollDone:
				return
			default:
				st := coord.Status()
				got := samples(coordReg)
				if after := coord.Status(); sameStatus(st, after) {
					checkSamples(t, "mid-run coordinator", got, coordStatusSamples(st))
					if st.Zones[slowZone].Lag > 0 {
						stalledScrapes++
					}
				}
				if worst.Zones == nil || st.Zones[slowZone].Lag > worst.Zones[slowZone].Lag {
					worst = st
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}()

	var wg sync.WaitGroup
	workerErrs := make([]error, nZones)
	workers := make([]*federate.Worker, nZones)
	workerRegs := make([]*telemetry.Registry, nZones)
	for z := 0; z < nZones; z++ {
		wg.Add(1)
		go func(z int) {
			defer wg.Done()
			workerErrs[z] = func() error {
				s, err := sim.New(cfg)
				if err != nil {
					return err
				}
				zones, err := s.PartitionZones(nZones)
				if err != nil {
					return err
				}
				sub, err := core.New(core.Config{
					Readers:     zones[z],
					Locations:   s.Locations(),
					Inference:   inference.DefaultConfig(),
					Compression: core.Level1,
				})
				if err != nil {
					return err
				}
				w, err := federate.NewWorker(federate.WorkerConfig{
					Zone:        federate.ZoneID(z),
					Addr:        ln.Addr().String(),
					Substrate:   sub,
					AckWindow:   ackWindow,
					BaseBackoff: 5 * time.Millisecond,
					MaxBackoff:  100 * time.Millisecond,
					JitterSeed:  int64(z) + 1,
				})
				if err != nil {
					return err
				}
				workers[z], workerRegs[z] = w, telemetry.NewRegistry()
				w.Instrument(workerRegs[z])
				src, err := zoneBatchFeed(s, zones, z)
				if err != nil {
					return err
				}
				if z == slowZone {
					src = &slowSource{inner: src, stallAt: stallAt, stall: stall}
				}
				return w.RunBatches(context.Background(), src)
			}()
		}(z)
	}
	wg.Wait()
	for z, err := range workerErrs {
		if err != nil {
			t.Fatalf("zone %d worker: %v", z, err)
		}
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("coordinator: %v (a near-miss must not become a failure)", err)
	}
	close(pollDone)
	pollWG.Wait()
	if stalledScrapes == 0 {
		t.Error("no scrape landed between two equal mid-stall Status() snapshots")
	}
	checkSamples(t, "final coordinator", samples(coordReg), coordStatusSamples(coord.Status()))
	for z, w := range workers {
		st := w.Status()
		if st.Connects == 0 || st.ReplayHighWater == 0 {
			t.Errorf("zone %d worker status %+v: the run left no link history to compare", z, st)
		}
		checkSamples(t, fmt.Sprintf("zone %d worker", z), samples(workerRegs[z]), workerStatusSamples(st))
	}

	// Ground truth, side 1: the live snapshot named the culprit.
	if worst.Zones == nil {
		t.Fatal("status poller never saw a snapshot")
	}
	slow, fast := worst.Zones[slowZone], worst.Zones[1-slowZone]
	if slow.Lag == 0 {
		t.Errorf("slow zone %d never showed positive lag in any snapshot", slowZone)
	}
	if fast.Lag != 0 {
		t.Errorf("healthy zone %d showed lag %d in the worst snapshot", fast.Zone, fast.Lag)
	}
	if fast.ReplayDepth == 0 {
		t.Errorf("healthy zone %d showed no batches parked at the barrier mid-stall", fast.Zone)
	}
	t.Logf("worst snapshot: barrier %d, zone %d lag %d (state %s), zone %d replay depth %d",
		worst.BarrierEpoch, slow.Zone, slow.Lag, slow.State, fast.Zone, fast.ReplayDepth)

	// Side 2: the near-miss fired, against the slow zone only.
	final := coord.Status()
	if final.NearMisses == 0 {
		t.Error("no barrier near-miss recorded; stall never crossed the warn threshold")
	}
	if final.Zones[slowZone].NearMisses == 0 {
		t.Errorf("near-misses not attributed to slow zone %d", slowZone)
	}
	if n := final.Zones[1-slowZone].NearMisses; n != 0 {
		t.Errorf("healthy zone charged with %d near-misses", n)
	}
	if got := samples(coordReg)[fmt.Sprintf(`spire_fed_straggler_near_miss_total{zone="%d"}`, slowZone)]; got == 0 {
		t.Errorf("spire_fed_straggler_near_miss_total{zone=\"%d\"} = 0, want > 0", slowZone)
	}

	// Side 3: the operator-facing signals name the zone before any
	// timeout — the warn log and the flight recorder.
	logs := logBuf.String()
	if !strings.Contains(logs, "barrier near-miss") || !strings.Contains(logs, fmt.Sprintf("[%d]", slowZone)) {
		t.Errorf("warn log does not name the slow zone; logs:\n%s", logs)
	}
	var sawNearMiss bool
	for _, e := range rec.Events() {
		if e.Kind == trace.ConnNearMiss && strings.Contains(e.Detail, fmt.Sprintf("[%d]", slowZone)) {
			sawNearMiss = true
		}
	}
	if !sawNearMiss {
		t.Error("flight recorder holds no near-miss event naming the slow zone")
	}

	// And the stream itself is untouched by all of it.
	want := runInProcessBatchFederated(t, cfg, core.Level1, nZones)
	if !slices.Equal(want, merged) {
		diffCanonical(t, "straggler cluster", want, merged)
		t.Fatalf("streams differ only in order: %d events", len(merged))
	}
}
