package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"spire/internal/sim"
	"spire/internal/trace"
)

// explainParityRecords is the per-tag record count at or under which a
// tag's explanation is pinned by testdata/explain: the tags whose whole
// provenance fit the 32-record per-tag rings the recorder kept before it
// held one recency window, so their explanations must not move.
const explainParityRecords = 32

// TestExplainParityGolden pins /v1/explain's answers byte for byte: for
// every golden scenario it traces every tag and renders Explain as one
// JSON line per tag (sorted) for each tag with at most
// explainParityRecords retained records. Regenerate with
//
//	go test ./internal/core -run TestExplainParityGolden -update
//
// only for a deliberate change to provenance or Explain.
func TestExplainParityGolden(t *testing.T) {
	obsTrace, s := buildTrace(t, 200)
	for _, sc := range goldenScenarios {
		t.Run(sc.name, func(t *testing.T) {
			delivery := obsTrace
			if sc.faults != nil {
				delivery = sim.NewFaultInjector(*sc.faults).Apply(obsTrace)
			}
			rec := trace.New(trace.Config{All: true})
			sub := newSubstrate(t, s, sc.level)
			sub.Trace(rec)
			runDelivery(t, sub, RunnerConfig{}, delivery)

			var got bytes.Buffer
			enc := json.NewEncoder(&got)
			for _, g := range rec.TracedTags() {
				if len(rec.TagRecords(g)) > explainParityRecords {
					continue
				}
				if err := enc.Encode(rec.Explain(g)); err != nil {
					t.Fatal(err)
				}
			}
			if got.Len() == 0 {
				t.Fatal("no tag within the parity bound")
			}

			path := filepath.Join("testdata", "explain", sc.name+".jsonl")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing explain golden (regenerate with -update): %v", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s: explanations differ from %s", sc.name, path)
			}
		})
	}
}
