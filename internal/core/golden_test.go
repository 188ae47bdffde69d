package core

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spire/internal/model"
	"spire/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden digests under testdata/golden")

// The golden corpus pins the exact output of three deterministic
// end-to-end scenarios as SHA-256 digests of the binary event stream.
// Any change to dedup, inference, conflict resolution, compression, or
// the ingest gate that alters even one emitted event flips a digest and
// fails here — the broadest regression tripwire in the repo. Intentional
// output changes regenerate the digests with:
//
//	go test ./internal/core -run TestGolden -update
//
// and the diff of testdata/golden/ then documents that the output
// changed on purpose.
type goldenScenario struct {
	name   string
	level  CompressionLevel
	ingest IngestConfig
	// faults perturbs the clean trace into the delivered sequence; nil
	// delivers the trace as-is.
	faults *sim.FaultConfig
}

var goldenScenarios = []goldenScenario{
	{
		name:  "clean",
		level: Level2,
	},
	{
		// Duplicated and late deliveries plus whole lost epochs under the
		// reject policy: stale arrivals are dropped, gaps stay gaps.
		name:   "faulted-reject",
		level:  Level1,
		ingest: IngestConfig{Policy: IngestReject},
		faults: &sim.FaultConfig{
			Seed:          21,
			DropoutEvery:  50,
			DropoutLen:    4,
			DuplicateRate: 0.1,
			DropEpochRate: 0.05,
		},
	},
	{
		// Duplicates and adjacent swaps under the repair policy: the gate
		// reorders and merges them back into the clean sequence.
		name:   "faulted-repair",
		level:  Level2,
		ingest: IngestConfig{Policy: IngestRepair},
		faults: &sim.FaultConfig{
			Seed:          22,
			DuplicateRate: 0.12,
			SwapRate:      0.12,
		},
	},
}

func TestGoldenScenarios(t *testing.T) {
	trace, s := buildTrace(t, 200)
	for _, sc := range goldenScenarios {
		t.Run(sc.name, func(t *testing.T) {
			delivery := trace
			if sc.faults != nil {
				delivery = sim.NewFaultInjector(*sc.faults).Apply(trace)
			}
			evs, _ := runGated(t, newSubstrate(t, s, sc.level),
				RunnerConfig{Ingest: sc.ingest}, delivery)
			if len(evs) == 0 {
				t.Fatal("scenario produced no events")
			}
			sum := sha256.Sum256(encodeEvents(t, evs))
			got := hex.EncodeToString(sum[:])

			path := filepath.Join("testdata", "golden", sc.name+".sha256")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("updated %s = %s", path, got)
				return
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden digest (regenerate with -update): %v", err)
			}
			want := strings.TrimSpace(string(raw))
			if got != want {
				t.Errorf("%s: event-stream digest changed\ngot:  %s\nwant: %s\n"+
					"If the output change is intentional, regenerate with -update.",
					sc.name, got, want)
			}
		})
	}
}

// TestGoldenTraceIsDeterministic guards the corpus's foundation: the
// simulator and fault injector must be bit-stable under a fixed seed, or
// the digests would flake rather than gate regressions.
func TestGoldenTraceIsDeterministic(t *testing.T) {
	traceA, _ := buildTrace(t, 200)
	traceB, _ := buildTrace(t, 200)
	if len(traceA) != len(traceB) {
		t.Fatalf("trace lengths differ: %d vs %d", len(traceA), len(traceB))
	}
	digest := func(trace []*model.Batch) string {
		h := sha256.New()
		for _, o := range trace {
			for _, rd := range o.Readings() {
				h.Write([]byte{byte(rd.Reader)})
				var buf [8]byte
				for i := 0; i < 8; i++ {
					buf[i] = byte(rd.Tag >> (8 * i))
				}
				h.Write(buf[:])
			}
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	if digest(traceA) != digest(traceB) {
		t.Fatal("simulator trace not deterministic under fixed seed")
	}
	faultsA := sim.NewFaultInjector(*goldenScenarios[1].faults).Apply(traceA)
	faultsB := sim.NewFaultInjector(*goldenScenarios[1].faults).Apply(traceB)
	if len(faultsA) != len(faultsB) || digest(faultsA) != digest(faultsB) {
		t.Fatal("fault injector not deterministic under fixed seed")
	}
}
