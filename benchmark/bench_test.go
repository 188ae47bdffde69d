package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"spire/internal/compress"
	"spire/internal/core"
	"spire/internal/event"
	"spire/internal/model"
	"spire/internal/sim"
)

// tiny is a few dozen objects: every code path of a real workload at a
// cost a unit test can pay.
func tiny(name string, level core.CompressionLevel) workload {
	c := sim.DefaultConfig()
	c.ReadRate = 0.95
	c.PalletInterval = 12
	c.CasesMin, c.CasesMax = 2, 2
	c.ItemsPerCase = 3
	c.NumShelves = 4
	c.ShelfTime = 40
	c.ShelfPeriod = 5
	c.TheftInterval = 90
	return workload{Name: name, Sim: c, Level: level, Ramp: 80, LeadIn: 10, Timed: 1300, FFloor: 0.3}
}

func TestWorkloadsAreValid(t *testing.T) {
	seen := make(map[string]bool)
	for _, w := range workloads() {
		if err := w.validate(); err != nil {
			t.Error(err)
		}
		if w.Timed < minTimedEpochs {
			t.Errorf("%s times %d epochs, want at least %d", w.Name, w.Timed, minTimedEpochs)
		}
		if seen[w.Name] {
			t.Errorf("workload name %s used twice", w.Name)
		}
		seen[w.Name] = true
	}
}

func TestGeneratorRejectsOverloadedBelt(t *testing.T) {
	w := tiny("overloaded", core.Level1)
	// 8 cases × 3 epochs on the belt + 4 at the door = 28 > 20.
	w.Sim.CasesMax, w.Sim.BeltDwell, w.Sim.EntryDwell, w.Sim.PalletInterval = 8, 3, 4, 20
	if _, err := generate(w, 1, t.TempDir()); err == nil || !strings.Contains(err.Error(), "belt") {
		t.Errorf("generate accepted a belt that cannot keep up: err = %v", err)
	}
	w.Sim.PalletInterval = 28
	if err := w.validate(); err != nil {
		t.Errorf("PalletInterval equal to the belt's need must pass: %v", err)
	}
}

func TestSameSeedSameTrace(t *testing.T) {
	single := tiny("tiny", core.Level2)
	cluster := tiny("tiny_cluster", core.Level1)
	cluster.Zones, cluster.LeadIn = 2, 0
	for _, w := range []workload{single, cluster} {
		a, err := generate(w, 7, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(w, 7, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		c, err := generate(w, 8, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if a.hash != b.hash {
			t.Errorf("%s: seed 7 gave two different traces", w.Name)
		}
		if a.hash == c.hash {
			t.Errorf("%s: seeds 7 and 8 gave the same trace", w.Name)
		}
		if len(a.truth) == 0 {
			t.Errorf("%s: no ground truth", w.Name)
		}
	}
}

// checkRun runs a whole traced run of a tiny workload and checks what the
// acceptance criteria ask of a real one.
func checkRun(t *testing.T, w workload) *report {
	t.Helper()
	out := t.TempDir()
	rep, err := runWorkload(w, 3, minPasses, true, out)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OpsFailed != 0 || len(rep.Problems) != 0 {
		t.Errorf("ops_failed = %d, problems %v", rep.OpsFailed, rep.Problems)
	}
	if rep.Passes != minPasses {
		t.Errorf("%d passes, want %d", rep.Passes, minPasses)
	}
	if want := rep.TimedEpochs * (rep.Passes + 1); rep.OpsAttempted != want {
		t.Errorf("ops_attempted = %d, want timed epochs × (passes + traced pass) = %d", rep.OpsAttempted, want)
	}
	if rep.SamplesBeyondP99 < minBeyond {
		t.Errorf("%d samples beyond p99, want at least %d", rep.SamplesBeyondP99, minBeyond)
	}
	for _, d := range endToEnd {
		if v := rep.EndToEnd[d.Name].Value; !(v > 0) || math.IsInf(v, 0) {
			t.Errorf("%s = %g, want a positive number", d.Name, v)
		}
	}
	if len(rep.PerLayer) != len(perLayer) {
		t.Errorf("%d per-layer metrics, want %d", len(rep.PerLayer), len(perLayer))
	}
	var sum float64
	for _, row := range rep.Ledger {
		sum += row.Share
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("ledger shares sum to %g, want 1", sum)
	}
	if u := rep.PerLayer["ledger.unaccounted_share"].Value; u < 0 || u > 0.05 {
		t.Errorf("ledger.unaccounted_share = %g, want within [0, 0.05]", u)
	}
	if _, err := os.Stat(filepath.Join(out, "trace-"+w.Name+".jsonl")); err != nil {
		t.Errorf("span file: %v", err)
	}
	left, err := filepath.Glob(filepath.Join(out, "tmp-*"))
	if err != nil || len(left) != 0 {
		t.Errorf("scratch directories left behind: %v %v", left, err)
	}
	return rep
}

func TestTinyServingRun(t *testing.T) {
	w := tiny("tiny", core.Level2)
	w.Serving = true
	rep := checkRun(t, w)
	for _, name := range []string{"eventlog.append_s_per_mevent", "query.feed_s_per_mevent", "cep.dispatch_s_per_mevent", "inference.partial_epoch_ms_p50", "inference.complete_epoch_ms_p50", "checkpoint.restore_s"} {
		if v := rep.PerLayer[name].Value; !(v > 0) {
			t.Errorf("%s = %g, want the layer to have done work", name, v)
		}
	}
	// Deterministic metrics repeat exactly for the same seed.
	again, err := runWorkload(w, 3, minPasses, false, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"compression_ratio", "event_f_measure"} {
		if a, b := rep.EndToEnd[name].Value, again.EndToEnd[name].Value; a != b {
			t.Errorf("%s = %v then %v for the same seed", name, a, b)
		}
	}
	if want := again.TimedEpochs * minPasses; again.OpsAttempted != want {
		t.Errorf("ops_attempted = %d, want timed epochs × passes = %d", again.OpsAttempted, want)
	}
	if rep.OutputSHA256 != again.OutputSHA256 {
		t.Error("same seed, different output")
	}
}

func TestTinyClusterRun(t *testing.T) {
	w := tiny("tiny_cluster", core.Level1)
	w.Zones, w.LeadIn = 2, 0
	rep := checkRun(t, w)
	for _, name := range []string{"federate.wire_bytes_per_epoch", "federate.merge_s_per_mevent", "stream.frame_encode_s_per_mevent", "stream.frame_decode_s_per_mevent", "federate.worker_s_per_mread", "federate.zone_skew"} {
		if v := rep.PerLayer[name].Value; !(v > 0) {
			t.Errorf("%s = %g, want the layer to have done work", name, v)
		}
	}
}

// The pass count follows from -seconds alone, so two runs under comparison
// attempt the same operations however fast their hosts are.
func TestPassCountFollowsTheFlag(t *testing.T) {
	for _, c := range []struct {
		seconds float64
		want    int
	}{{25, 8}, {30, 10}, {12, 4}, {5, 3}, {0, 3}} {
		if got := passesFor(c.seconds); got != c.want {
			t.Errorf("passesFor(%g) = %d, want %d", c.seconds, got, c.want)
		}
	}
}

// TestManifestMatchesProgram keeps BENCHMARK.json and the metric and
// workload tables in step: the driver refuses a run that does not print
// exactly the metrics the manifest names.
func TestManifestMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		RunSeconds float64 `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if got := passesFor(m.RunSeconds); got != 8 {
		t.Errorf("the manifest's run_seconds %g gives %d passes; the committed results were taken with 8", m.RunSeconds, got)
	}
	ws := workloads()
	if len(m.Workloads) != len(ws) {
		t.Fatalf("manifest has %d workloads, program %d", len(m.Workloads), len(ws))
	}
	for i, w := range ws {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: manifest %+v, program {%s %s}", i, m.Workloads[i], w.Name, w.Why)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d metrics, program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: manifest %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEnd)
	same("per_layer", m.PerLayer, perLayer)
}

// The ground-truth stream is built from per-epoch differences; it must be
// the stream a compressor fed every epoch's whole truth produces.
func TestTruthStreamMatchesFullCompression(t *testing.T) {
	cfg := tiny("tiny", core.Level1).Sim
	cfg.Seed, cfg.Duration = 5, 400
	newSim := func() *sim.Simulator {
		s, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := newSim(), newSim()
	diffed := newTruthStream()
	full := compress.NewLevel1(levelOf)
	var want []event.Event
	for !a.Done() {
		if _, err := a.Step(); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Step(); err != nil {
			t.Fatal(err)
		}
		diffed.observe(a)
		want = append(want, full.Compress(b.TrueResult())...)
		for _, g := range b.Departed() {
			want = append(want, full.Retire(g, b.Now())...)
		}
	}
	if len(want) == 0 {
		t.Fatal("no ground-truth events")
	}
	if !slices.Equal(diffed.out, want) {
		t.Errorf("differential truth stream has %d events, full compression %d, and they differ", len(diffed.out), len(want))
	}
}

func TestReadNoiseLosesReadingsAtTheConfiguredRate(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.ReadRate = 0.8
	cfg.NonShelfInterrogations = 2
	readers := []model.Reader{{ID: 1, Period: 1}, {ID: 7, Period: 60}}
	n := newReadNoise(42, cfg, readers)
	var b model.Batch
	const perReader = 20000
	b.Reset(9)
	for _, r := range readers {
		b.BeginReader(r.ID)
		for i := 0; i < perReader; i++ {
			b.Append(model.Tag(i + 1))
		}
	}
	n.apply(&b)
	if err := b.Validate(); err != nil {
		t.Fatalf("batch after noise: %v", err)
	}
	if len(b.Groups) != 2 {
		t.Fatalf("%d reader groups left, want 2", len(b.Groups))
	}
	// Two interrogations at 0.8 detect 96 % of tags, one detects 80 %.
	for i, want := range []float64{0.96, 0.80} {
		got := float64(b.Groups[i].Len()) / perReader
		if math.Abs(got-want) > 0.01 {
			t.Errorf("reader %d kept %.3f of its readings, want about %.2f", b.Groups[i].Reader, got, want)
		}
	}
	tags := b.GroupTags(0)
	if !slices.IsSorted(tags) {
		t.Error("noise reordered a reader's tags")
	}
}

// readNoise repeats the simulator's detection model so that a run's seed
// can draw the read noise while the warehouse schedule stays fixed. This
// pins the copy to the original: over the same schedule, the simulator at
// a read rate and the benchmark's noise over the simulator's perfect
// readings must lose the same share of every reader's readings.
func TestReadNoiseMatchesSimulatorReadModel(t *testing.T) {
	cfg := tiny("tiny", core.Level1).Sim
	cfg.Seed, cfg.Duration, cfg.ReadRate = 11, 4000, 0.7
	perfectCfg := cfg
	perfectCfg.ReadRate = 1
	lossy, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	perfect, err := sim.New(perfectCfg)
	if err != nil {
		t.Fatal(err)
	}
	noise := newReadNoise(5, cfg, perfect.Readers())
	inRange := make(map[model.ReaderID]int)
	simKept := make(map[model.ReaderID]int)
	noiseKept := make(map[model.ReaderID]int)
	count := func(into map[model.ReaderID]int, b *model.Batch) {
		for _, g := range b.Groups {
			into[g.Reader] += g.Len()
		}
	}
	var a, b model.Batch
	for !lossy.Done() {
		if err := lossy.StepBatch(&a); err != nil {
			t.Fatal(err)
		}
		if err := perfect.StepBatch(&b); err != nil {
			t.Fatal(err)
		}
		count(simKept, &a)
		count(inRange, &b)
		noise.apply(&b)
		count(noiseKept, &b)
	}
	checked := 0
	for _, r := range perfect.Readers() {
		n := inRange[r.ID]
		if n < 1000 {
			continue
		}
		checked++
		simShare, noiseShare := float64(simKept[r.ID])/float64(n), float64(noiseKept[r.ID])/float64(n)
		if math.Abs(simShare-noise.detect[r.ID]) > 0.03 || math.Abs(noiseShare-simShare) > 0.03 {
			t.Errorf("reader %d (period %d): the simulator keeps %.3f of %d readings, readNoise keeps %.3f and expects %.3f",
				r.ID, r.Period, simShare, n, noiseShare, noise.detect[r.ID])
		}
	}
	if checked < 4 {
		t.Fatalf("only %d readers saw enough tags to compare", checked)
	}
}
