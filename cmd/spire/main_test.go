package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
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
		if out, err := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "spire/cmd/...").CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
			return 1
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

// referenceBatches interprets the trace with an in-process substrate
// built the way main builds it and returns its output one epoch at a
// time: batches[i] holds epoch epochs[i]'s events, and the final entry
// (epoch InfiniteEpoch) the stream-closing events.
func referenceBatches(t *testing.T, level core.CompressionLevel) (epochs []model.Epoch, batches [][]event.Event) {
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
		epochs = append(epochs, o.Time)
		batches = append(batches, slices.Clone(out.Events)) // the substrate may reuse its output buffers
	}
	if err := <-feedErr; err != nil {
		t.Fatal(err)
	}
	return append(epochs, model.InfiniteEpoch), append(batches, sub.Close(sub.LastEpoch()+1))
}

// referenceStream is referenceBatches printed: lines[i] holds epoch
// epochs[i]'s events in the notation spire prints.
func referenceStream(t *testing.T, level core.CompressionLevel) (epochs []model.Epoch, lines []string) {
	t.Helper()
	epochs, batches := referenceBatches(t, level)
	for _, evs := range batches {
		var b strings.Builder
		for _, e := range evs {
			fmt.Fprintln(&b, pretty(e))
		}
		lines = append(lines, b.String())
	}
	return epochs, lines
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
// produces, byte for byte, and write byte-identical final checkpoints.
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

			dir := t.TempDir()
			final := func(name string) []byte {
				t.Helper()
				b, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			if got := sha(runSpire(t, "-input", tracePath, "-level", lvl, "-checkpoint", filepath.Join(dir, "plain.ckpt"))); got != want {
				t.Errorf("untraced stream sha %s, in-process substrate %s", got, want)
			}
			if got := sha(runSpire(t, "-input", tracePath, "-level", lvl, "-trace-epochs", "64",
				"-checkpoint", filepath.Join(dir, "traced.ckpt"))); got != want {
				t.Errorf("-trace-epochs 64 stream sha %s, in-process substrate %s", got, want)
			}
			wantCkpt := final("plain.ckpt")
			if !bytes.Equal(final("traced.ckpt"), wantCkpt) {
				t.Error("two uninterrupted runs wrote different final checkpoints")
			}

			// Crash a run mid-stream: feed it the first part of the trace
			// on stdin, hold the pipe open, and kill it once a periodic
			// checkpoint is on disk.
			ckpt := filepath.Join(dir, "state.ckpt")
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
			if got := sha(runSpire(t, "-input", tracePath, "-restore", ckpt,
				"-checkpoint", filepath.Join(dir, "restored.ckpt"))); got != sha([]byte(tail.String())) {
				t.Errorf("restored from epoch %d: continuation sha %s, in-process substrate %s", at, got, sha([]byte(tail.String())))
			}
			if !bytes.Equal(final("restored.ckpt"), wantCkpt) {
				t.Errorf("restored from epoch %d: final checkpoint differs from the uninterrupted run's", at)
			}
		})
	}
}

// TestDecompressMatchesLevel1 runs spiredecompress over a level-2 stream
// spire wrote: per object, its output must equal spire's level-1 stream of
// the same simulation. A stream whose containments form a cycle must fail
// the run with an error message, not crash it.
func TestDecompressMatchesLevel1(t *testing.T) {
	dir := t.TempDir()
	l1, l2, dec := filepath.Join(dir, "l1.bin"), filepath.Join(dir, "l2.bin"), filepath.Join(dir, "dec.bin")
	runSpire(t, "-simulate", "-duration", "1500", "-level", "1", "-o", l1)
	runSpire(t, "-simulate", "-duration", "1500", "-level", "2", "-o", l2)
	var last model.Epoch // the epoch spire closed the stream at
	for _, e := range readEvents(t, l2) {
		last = max(last, e.Emitted())
	}
	if out, err := exec.Command(filepath.Join(binDir, "spiredecompress"),
		"-i", l2, "-o", dec, "-close", fmt.Sprint(last)).CombinedOutput(); err != nil {
		t.Fatalf("spiredecompress: %v\n%s", err, out)
	}
	got, want := readEvents(t, dec), readEvents(t, l1)
	gl, gc := event.SplitStreams(got)
	wl, wc := event.SplitStreams(want)
	if !slices.Equal(gc, wc) {
		t.Fatalf("containment streams differ: %d vs %d events", len(gc), len(wc))
	}
	perObj := func(evs []event.Event) map[model.Tag][]event.Event {
		m := make(map[model.Tag][]event.Event)
		for _, e := range evs {
			m[e.Object] = append(m[e.Object], e)
		}
		return m
	}
	gm, wm := perObj(gl), perObj(wl)
	if len(gm) != len(wm) {
		t.Errorf("location events for %d objects, want %d", len(gm), len(wm))
	}
	for obj, ws := range wm {
		if gs := gm[obj]; !slices.Equal(gs, ws) {
			t.Errorf("object %d:\ngot:  %v\nwant: %v", obj, gs, ws)
		}
	}

	cycle := filepath.Join(dir, "cycle.bin")
	f, err := os.Create(cycle)
	if err != nil {
		t.Fatal(err)
	}
	w := event.NewWriter(f)
	for _, e := range []event.Event{
		event.NewStartContainment(1, 2, 1),
		event.NewStartContainment(2, 1, 1),
		event.NewMissing(1, 0, 1),
	} {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	out, err := exec.Command(filepath.Join(binDir, "spiredecompress"), "-i", cycle, "-o", filepath.Join(dir, "cycle-out.bin")).CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("cycle stream: want exit status 1, got err=%v\n%s", err, out)
	}
	if !strings.HasPrefix(string(out), "spiredecompress: ") || !strings.Contains(string(out), "cycle") {
		t.Fatalf("cycle stream: want an error message naming the cycle, got:\n%s", out)
	}
}

// readEvents decodes a binary event stream file.
func readEvents(t *testing.T, path string) []event.Event {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	evs, err := event.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return evs
}

// TestRemovedFlagsRejected pins that the flags deleted with the ingest
// and inference worker pools, the ingest gate, the observation zone feed,
// the sharded coordinator merge, the bench timing threshold and
// spiresim's no-op tracing and subscription flags are unknown to the flag
// package — not silently accepted.
func TestRemovedFlagsRejected(t *testing.T) {
	for _, tc := range []struct{ bin, flag, value string }{
		{"spire", "-ingest-workers", "1"},
		{"spire", "-infer-workers", "2"},
		{"spire", "-ingest-policy", "repair"},
		{"spiresim", "-ingest-workers", "1"},
		{"spiresim", "-infer-workers", "1"},
		{"spiresim", "-trace-tags", "all"},
		{"spiresim", "-subscribe", "SEQ(missing()) WITHIN 60"},
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
			Readers:     parts[z],
			Locations:   s.Locations(),
			Inference:   inference.DefaultConfig(),
			Compression: core.Level1,
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

// TestFederateLogsOnce drives a one-zone cluster with -log-level info and
// the query API on: each coordinator diagnostic is logged once, as a
// structured record, and the API's /v1/stats answers while the merged
// stream is served.
func TestFederateLogsOnce(t *testing.T) {
	fed := exec.Command(filepath.Join(binDir, "spirefed"), "-zones", "1", "-listen", "127.0.0.1:0",
		"-serve", "127.0.0.1:0", "-log-level", "info")
	stderr, err := fed.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := fed.Start(); err != nil {
		t.Fatal(err)
	}
	defer fed.Process.Kill()
	var log strings.Builder
	lines := bufio.NewScanner(stderr)
	// waitFor reads spirefed's log up to the first line containing s and
	// returns that line.
	waitFor := func(s string) string {
		t.Helper()
		for lines.Scan() {
			log.WriteString(lines.Text() + "\n")
			if strings.Contains(lines.Text(), s) {
				return lines.Text()
			}
		}
		t.Fatalf("spirefed log ended before %q:\n%s", s, log.String())
		return ""
	}
	_, api, _ := strings.Cut(waitFor("msg=serving"), "url=")
	_, addr, _ := strings.Cut(waitFor("coordinating 1 zones on "), " on ")

	zone := exec.Command(filepath.Join(binDir, "spirezone"), "-zone", "0", "-zones", "1",
		"-addr", addr, "-duration", "300", "-q")
	if out, err := zone.CombinedOutput(); err != nil {
		t.Fatalf("spirezone: %v\n%s", err, out)
	}
	waitFor("query API stays up")

	resp, err := (&http.Client{Timeout: 10 * time.Second}).Get(api + "v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Pipeline struct {
			MergedEpochs int64 `json:"merged_epochs"`
		} `json:"pipeline"`
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil || stats.Pipeline.MergedEpochs == 0 {
		t.Fatalf("/v1/stats: %+v, %v", stats, err)
	}

	if err := fed.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	for lines.Scan() {
		log.WriteString(lines.Text() + "\n")
	}
	if err := fed.Wait(); err != nil {
		t.Fatalf("spirefed: %v\n%s", err, log.String())
	}
	if n := strings.Count(log.String(), "zone connected"); n != 1 || strings.Contains(log.String(), "coordinator:") {
		t.Fatalf("want one structured \"zone connected\" record and no printf line, got %d:\n%s", n, log.String())
	}
}
