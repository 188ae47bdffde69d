package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"spire/internal/event"
	"spire/internal/sim"
	"spire/internal/telemetry"
)

// Instrumentation transparency: telemetry is observation-only, so a run
// with a live registry and a run with none must be indistinguishable in
// everything the pipeline produces — the emitted event stream, the query
// store built from it, and the checkpoint bytes. These tests pin that
// contract; any instrumentation that leaks into outputs (reordering a
// map iteration, consuming randomness, mutating state to measure it)
// breaks them.

// zeroWallClock clears the accumulated wall-clock counters before a
// snapshot comparison. They are the one legitimately nondeterministic
// piece of persisted state — two runs never measure identical durations —
// and they influence nothing downstream.
func zeroWallClock(sub *Substrate) {
	sub.stats.UpdateTime = 0
	sub.stats.InferenceTime = 0
}

func testInstrumentationTransparency(t *testing.T, level CompressionLevel) {
	trace, s := buildTrace(t, 150)
	end := trace[len(trace)-1].Time + 1

	run := func(reg *telemetry.Registry) (*Substrate, []event.Event) {
		sub := newSubstrate(t, s, level)
		sub.Instrument(reg)
		var evs []event.Event
		for _, o := range trace {
			out, err := sub.ProcessBatch(o.Clone())
			if err != nil {
				t.Fatal(err)
			}
			evs = append(evs, out.Events...)
		}
		evs = append(evs, sub.Close(end)...)
		return sub, evs
	}

	plainSub, plainEvs := run(nil)
	reg := telemetry.NewRegistry()
	instSub, instEvs := run(reg)

	// The event streams must be byte-identical on the wire.
	plainBytes := encodeEvents(t, plainEvs)
	if len(plainBytes) == 0 {
		t.Fatal("reference run produced no events")
	}
	if !bytes.Equal(plainBytes, encodeEvents(t, instEvs)) {
		t.Fatalf("instrumented event stream differs (%d vs %d events)",
			len(instEvs), len(plainEvs))
	}

	// The query stores built from both streams must answer identically.
	compareStores(t, feedStore(t, instEvs), feedStore(t, plainEvs), "instrumented run")

	// The checkpoints must be byte-identical once the wall-clock stat
	// counters — nondeterministic across any two runs, instrumented or
	// not — are taken out of the picture.
	zeroWallClock(plainSub)
	zeroWallClock(instSub)
	var plainSnap, instSnap bytes.Buffer
	if err := plainSub.Snapshot(&plainSnap); err != nil {
		t.Fatal(err)
	}
	if err := instSub.Snapshot(&instSnap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plainSnap.Bytes(), instSnap.Bytes()) {
		t.Fatal("instrumented checkpoint differs from uninstrumented checkpoint")
	}

	// SnapshotToFile takes the counting-writer path when instrumented;
	// the file bytes must still match the plain encoding exactly.
	path := filepath.Join(t.TempDir(), "inst.ckpt")
	if err := instSub.SnapshotToFile(path); err != nil {
		t.Fatal(err)
	}
	fileBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fileBytes, plainSnap.Bytes()) {
		t.Fatal("instrumented SnapshotToFile bytes differ from plain Snapshot")
	}

	// Guard against vacuous success: the instrumented run must actually
	// have recorded. Epochs counted, every substrate stage observed, and
	// the graph gauges populated.
	snaps := reg.Snapshot()
	byName := map[string][]telemetry.MetricSnapshot{}
	for _, m := range snaps {
		byName[m.Name] = append(byName[m.Name], m)
	}
	if got := byName["spire_epochs_total"]; len(got) != 1 || got[0].Value != float64(len(trace)) {
		t.Errorf("spire_epochs_total = %v, want %d", got, len(trace))
	}
	stageCounts := map[string]uint64{}
	for _, m := range byName["spire_epoch_stage_seconds"] {
		stageCounts[m.Labels] = m.Count
	}
	for _, stage := range []string{"dedup", "update", "inference", "conflict", "compress"} {
		if stageCounts[`stage="`+stage+`"`] != uint64(len(trace)) {
			t.Errorf("stage %s observed %d times, want %d",
				stage, stageCounts[`stage="`+stage+`"`], len(trace))
		}
	}
	if got := byName["spire_graph_nodes"]; len(got) != 1 || got[0].Value <= 0 {
		t.Errorf("spire_graph_nodes = %v, want > 0", got)
	}
	if got := byName["spire_checkpoint_writes_total"]; len(got) != 1 || got[0].Value != 1 {
		t.Errorf("spire_checkpoint_writes_total = %v, want 1", got)
	}
}

func TestInstrumentationTransparencyLevel1(t *testing.T) {
	testInstrumentationTransparency(t, Level1)
}

func TestInstrumentationTransparencyLevel2(t *testing.T) {
	testInstrumentationTransparency(t, Level2)
}

// TestInstrumentationTransparencyRunner runs the full runner path — the
// ingest gate under the repair policy over a faulted delivery — with and
// without telemetry and requires byte-identical output. This covers the
// StageIngest timing wrappers, which the substrate-level test cannot.
func TestInstrumentationTransparencyRunner(t *testing.T) {
	trace, s := buildTrace(t, 150)
	inj := sim.NewFaultInjector(sim.FaultConfig{
		Seed:          7,
		DuplicateRate: 0.15,
		SwapRate:      0.15,
	})
	delivery := inj.Apply(trace)
	cfg := RunnerConfig{Ingest: IngestConfig{Policy: IngestRepair}}

	plain, _ := runGated(t, newSubstrate(t, s, Level2), cfg, delivery)

	reg := telemetry.NewRegistry()
	instSub := newSubstrate(t, s, Level2)
	instSub.Instrument(reg)
	inst, _ := runGated(t, instSub, cfg, delivery)

	if !bytes.Equal(encodeEvents(t, plain), encodeEvents(t, inst)) {
		t.Fatalf("instrumented runner stream differs (%d vs %d events)", len(inst), len(plain))
	}
	var ingested uint64
	for _, m := range reg.Snapshot() {
		if m.Name == "spire_epoch_stage_seconds" && m.Labels == `stage="ingest"` {
			ingested = m.Count
		}
	}
	if ingested == 0 {
		t.Error("ingest stage never observed through the runner")
	}
}
