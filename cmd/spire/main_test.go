package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"spire/internal/core"
	"spire/internal/event"
	"spire/internal/experiments"
	"spire/internal/federate"
	"spire/internal/inference"
	"spire/internal/model"
	"spire/internal/sim"
	"spire/internal/stream"
)

// The binaries under test, built once by TestMain, and the spiresim trace
// they replay.
var (
	binDir    string
	tracePath string
)

func TestMain(m *testing.M) {
	os.Exit(func() int {
		dir, err := os.MkdirTemp("", "spire-cmd-test")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer os.RemoveAll(dir)
		binDir = dir
		for _, name := range []string{"spire", "spiresim", "spirezone", "spirefed", "spirebench", "spirebenchdiff"} {
			out, err := exec.Command("go", "build", "-o", filepath.Join(dir, name), "spire/cmd/"+name).CombinedOutput()
			if err != nil {
				fmt.Fprintf(os.Stderr, "go build %s: %v\n%s", name, err, out)
				return 1
			}
		}
		tracePath = filepath.Join(dir, "trace.bin")
		out, err := exec.Command(filepath.Join(dir, "spiresim"), "-duration", "1500", "-pallet-interval", "100", "-shelf-time", "300", "-read-rate", "0.85", "-o", tracePath).CombinedOutput()
		if err != nil {
			fmt.Fprintf(os.Stderr, "spiresim: %v\n%s", err, out)
			return 1
		}
		return m.Run()
	}())
}

// referenceStream interprets the trace with an in-process substrate built
// the way main builds it and returns the printed event stream split at
// epoch boundaries: lines[i] holds epoch epochs[i]'s events, and the final
// entry (epoch InfiniteEpoch) the stream-closing events.
func referenceStream(t *testing.T, level core.CompressionLevel) (epochs []model.Epoch, lines []string) {
	t.Helper()
	s, err := sim.New(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sub, err := core.New(core.Config{
		Readers:     s.Readers(),
		Locations:   s.Locations(),
		Inference:   inference.DefaultConfig(),
		Compression: level,
	})
	if err != nil {
		t.Fatal(err)
	}
	in := make(chan *model.Batch)
	feedErr := make(chan error, 1)
	go func() {
		defer close(in)
		feedErr <- feedStream(tracePath, model.EpochNone, in)
	}()
	for o := range in {
		out, err := sub.ProcessBatch(o)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, e := range out.Events {
			fmt.Fprintln(&b, pretty(e))
		}
		epochs = append(epochs, o.Time)
		lines = append(lines, b.String())
	}
	if err := <-feedErr; err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, e := range sub.Close(sub.LastEpoch() + 1) {
		fmt.Fprintln(&b, pretty(e))
	}
	return append(epochs, model.InfiniteEpoch), append(lines, b.String())
}

func runSpire(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, "spire"), args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("spire %v: %v\n%s", args, err, stderr.String())
	}
	return out
}

func sha(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

// TestEventStreamMatchesSubstrate drives the spire binary over one
// spiresim trace at both compression levels: an untraced run, a traced
// run, and a run restored from a checkpoint the binary itself wrote before
// being killed must all print the event stream the in-process substrate
// produces, byte for byte.
func TestEventStreamMatchesSubstrate(t *testing.T) {
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range []core.CompressionLevel{core.Level1, core.Level2} {
		t.Run(fmt.Sprintf("level%d", level), func(t *testing.T) {
			lvl := fmt.Sprint(int(level))
			epochs, lines := referenceStream(t, level)
			want := sha([]byte(strings.Join(lines, "")))
			if len(lines) < 100 || strings.Join(lines, "") == "" {
				t.Fatalf("reference stream too small: %d epochs", len(lines))
			}

			if got := sha(runSpire(t, "-input", tracePath, "-level", lvl)); got != want {
				t.Errorf("untraced stream sha %s, in-process substrate %s", got, want)
			}
			if got := sha(runSpire(t, "-input", tracePath, "-level", lvl, "-trace-epochs", "64")); got != want {
				t.Errorf("-trace-epochs 64 stream sha %s, in-process substrate %s", got, want)
			}

			// Crash a run mid-stream: feed it the first part of the trace
			// on stdin, hold the pipe open, and kill it once a periodic
			// checkpoint is on disk.
			ckpt := filepath.Join(t.TempDir(), "state.ckpt")
			crash := exec.Command(filepath.Join(binDir, "spire"), "-input", "-", "-level", lvl,
				"-checkpoint", ckpt, "-checkpoint-every", "50")
			stdin, err := crash.StdinPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := crash.Start(); err != nil {
				t.Fatal(err)
			}
			part := len(raw) / stream.ReadingSize * 6 / 10 * stream.ReadingSize
			if _, err := stdin.Write(raw[:part]); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(30 * time.Second)
			for {
				if _, err := os.Stat(ckpt); err == nil {
					break
				}
				if time.Now().After(deadline) {
					crash.Process.Kill()
					t.Fatal("no checkpoint written within 30s")
				}
				time.Sleep(5 * time.Millisecond)
			}
			crash.Process.Kill()
			crash.Wait() //nolint:errcheck — killed on purpose
			stdin.Close()

			sub, err := core.RestoreSubstrateFromFile(ckpt)
			if err != nil {
				t.Fatalf("checkpoint written by the killed run: %v", err)
			}
			at := sub.LastEpoch()
			var tail strings.Builder
			for i, e := range epochs {
				if e > at {
					tail.WriteString(lines[i])
				}
			}
			if at < 50 || tail.Len() == 0 {
				t.Fatalf("checkpoint at epoch %d leaves nothing to continue", at)
			}
			if got := sha(runSpire(t, "-input", tracePath, "-restore", ckpt)); got != sha([]byte(tail.String())) {
				t.Errorf("restored from epoch %d: continuation sha %s, in-process substrate %s", at, got, sha([]byte(tail.String())))
			}
		})
	}
}

// TestRemovedFlagsRejected pins that the flags deleted with the ingest
// and inference worker pools, the observation zone feed, the sharded
// coordinator merge and the bench timing threshold are unknown to the
// flag package — not silently accepted.
func TestRemovedFlagsRejected(t *testing.T) {
	for _, tc := range []struct{ bin, flag, value string }{
		{"spire", "-ingest-workers", "1"},
		{"spire", "-infer-workers", "2"},
		{"spiresim", "-ingest-workers", "1"},
		{"spiresim", "-infer-workers", "1"},
		{"spirezone", "-feed", "obs"},
		{"spirefed", "-serial-merge", "true"},
		{"spirefed", "-merge-shards", "4"},
		{"spirebenchdiff", "-max-regression", "0.2"},
	} {
		t.Run(tc.bin+tc.flag, func(t *testing.T) {
			out, err := exec.Command(filepath.Join(binDir, tc.bin), tc.flag, tc.value).CombinedOutput()
			if _, ok := err.(*exec.ExitError); !ok {
				t.Fatalf("%s %s %s: want a non-zero exit, got err=%v", tc.bin, tc.flag, tc.value, err)
			}
			if want := "flag provided but not defined: " + tc.flag; !strings.Contains(string(out), want) {
				t.Fatalf("%s %s: output lacks %q:\n%s", tc.bin, tc.flag, want, out)
			}
		})
	}
}

// TestBenchReportIndependentOfWorkers runs spirebench over a sweep, a
// second sweep and a table with a timed column at -j 1 and -j 4: every
// untimed cell of the two -json reports must be identical.
func TestBenchReportIndependentOfWorkers(t *testing.T) {
	type report struct {
		Experiments []struct {
			Tables []experiments.Table `json:"tables"`
		} `json:"experiments"`
	}
	// untimed returns the report's tables with every timed cell zeroed,
	// and how many timed columns they declare.
	untimed := func(j string) ([]experiments.Table, int) {
		path := filepath.Join(t.TempDir(), "bench.json")
		out, err := exec.Command(filepath.Join(binDir, "spirebench"), "-quick",
			"-expt", "fig9d,ablation-prune,ablation-partial", "-j", j, "-json", path).CombinedOutput()
		if err != nil {
			t.Fatalf("spirebench -j %s: %v\n%s", j, err, out)
		}
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var r report
		if err := json.Unmarshal(buf, &r); err != nil {
			t.Fatal(err)
		}
		var tables []experiments.Table
		timed := 0
		for _, e := range r.Experiments {
			for _, tbl := range e.Tables {
				for ci, c := range tbl.Columns {
					if !slices.Contains(tbl.Timed, c) {
						continue
					}
					timed++
					for _, row := range tbl.Rows {
						row.Values[ci] = 0
					}
				}
				tables = append(tables, tbl)
			}
		}
		return tables, timed
	}
	serial, timed := untimed("1")
	parallel, _ := untimed("4")
	if len(serial) != 3 || timed != 1 {
		t.Fatalf("got %d tables with %d timed columns, want 3 tables and ablation-partial's one timed column", len(serial), timed)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("untimed cells differ between -j 1 and -j 4:\n%+v\n%+v", serial, parallel)
	}
}

// clusterReference interprets a 2-zone cluster in process — each zone's
// substrate built and fed the way spirezone builds and feeds it, merged
// one epoch barrier at a time as spirefed does — and returns the merged
// stream in the binary event wire format spirefed -o writes.
func clusterReference(t *testing.T, cfg sim.Config, nZones int) []byte {
	t.Helper()
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := s.PartitionZones(nZones)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := s.PartitionZonesBatch(nZones)
	if err != nil {
		t.Fatal(err)
	}
	subs := make([]*core.Substrate, nZones)
	for z := range subs {
		if subs[z], err = core.New(core.Config{
			Readers:        parts[z],
			Locations:      s.Locations(),
			Inference:      inference.DefaultConfig(),
			Compression:    core.Level1,
			WarmupLocation: s.EntryLocation(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	w := event.NewWriter(&buf)
	write := func(evs []event.Event) {
		for _, e := range evs {
			if err := w.Write(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	m := federate.NewMerger()
	last := model.EpochNone
	for {
		batches := make([][]event.Event, nZones)
		var epoch model.Epoch
		for z := range batches {
			b, err := streams[z].NextBatch()
			if err == io.EOF {
				end := last + 1
				closing := make([][]event.Event, nZones)
				for z, sub := range subs {
					closing[z] = sub.Close(end)
				}
				out, err := m.MergeEpoch(end, closing, true)
				if err != nil {
					t.Fatal(err)
				}
				write(out)
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			if err != nil {
				t.Fatal(err)
			}
			epoch = b.Time
			out, err := subs[z].ProcessBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			batches[z] = out.Events
		}
		out, err := m.MergeEpoch(epoch, batches, false)
		if err != nil {
			t.Fatal(err)
		}
		write(out)
		last = epoch
	}
}

// TestClusterMatchesMerger drives spirefed and two spirezone processes
// over loopback TCP: the merged -o stream must hash to the in-process
// Merger reference.
func TestClusterMatchesMerger(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Duration = 600
	merged := filepath.Join(t.TempDir(), "merged.bin")
	fed := exec.Command(filepath.Join(binDir, "spirefed"), "-zones", "2", "-listen", "127.0.0.1:0", "-o", merged)
	stderr, err := fed.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := fed.Start(); err != nil {
		t.Fatal(err)
	}
	defer fed.Process.Kill()
	// spirefed logs its bound address; the rest of its log is drained so
	// it never blocks on a full pipe.
	lines := bufio.NewScanner(stderr)
	var addr string
	for addr == "" && lines.Scan() {
		if _, a, ok := strings.Cut(lines.Text(), "coordinating 2 zones on "); ok {
			addr = a
		}
	}
	if addr == "" {
		t.Fatal("spirefed exited before listening")
	}
	go io.Copy(io.Discard, stderr) //nolint:errcheck

	zones := make([]*exec.Cmd, 2)
	for z := range zones {
		zones[z] = exec.Command(filepath.Join(binDir, "spirezone"), "-zone", fmt.Sprint(z), "-zones", "2",
			"-addr", addr, "-duration", fmt.Sprint(cfg.Duration), "-q")
		if err := zones[z].Start(); err != nil {
			t.Fatal(err)
		}
	}
	for z, zc := range zones {
		if err := zc.Wait(); err != nil {
			t.Fatalf("spirezone %d: %v", z, err)
		}
	}
	if err := fed.Wait(); err != nil {
		t.Fatalf("spirefed: %v", err)
	}
	got, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	want := clusterReference(t, cfg, 2)
	if len(want) == 0 {
		t.Fatal("reference stream is empty")
	}
	if sha(got) != sha(want) {
		t.Fatalf("merged stream sha %s (%d bytes), in-process Merger %s (%d bytes)", sha(got), len(got), sha(want), len(want))
	}
}
