package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spire/internal/core"
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
		for _, name := range []string{"spire", "spiresim", "spirezone"} {
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
	obsCh := make(chan *model.Observation)
	feedErr := make(chan error, 1)
	go func() {
		defer close(obsCh)
		feedErr <- feedStream(tracePath, model.EpochNone, obsCh)
	}()
	for o := range obsCh {
		out, err := sub.ProcessEpoch(o)
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
// and inference worker pools and the observation zone feed are unknown to
// the flag package — not silently accepted.
func TestRemovedFlagsRejected(t *testing.T) {
	for _, tc := range []struct{ bin, flag, value string }{
		{"spire", "-ingest-workers", "1"},
		{"spire", "-infer-workers", "2"},
		{"spiresim", "-ingest-workers", "1"},
		{"spiresim", "-infer-workers", "1"},
		{"spirezone", "-feed", "obs"},
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
