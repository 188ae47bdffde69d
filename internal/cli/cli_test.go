package cli

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"spire/internal/query"
	"spire/internal/sim"
	"spire/internal/telemetry"
	"spire/internal/trace"
)

func TestServeFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		addr string
	}{
		{nil, ""},
		{[]string{"-metrics-addr", ":9090"}, ":9090"},
		{[]string{"-metrics-addr", ":9090", "-pprof"}, ":9090"},
		{[]string{"-pprof"}, "localhost:0"},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		s := RegisterServe(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		if got := s.Addr(); got != tc.addr {
			t.Errorf("%v: Addr %q, want %q", tc.args, got, tc.addr)
		}
	}
}

// TestQuietRaisesDefaultLevel pins -q's meaning on the shared logger: the
// default level rises to warn, and levels -log-level names still win.
func TestQuietRaisesDefaultLevel(t *testing.T) {
	for _, tc := range []struct {
		spec            string
		quiet           bool
		other, federate slog.Level
	}{
		{"", false, slog.LevelInfo, slog.LevelInfo},
		{"", true, slog.LevelWarn, slog.LevelWarn},
		{"debug", true, slog.LevelDebug, slog.LevelDebug},
		{"federate=debug", true, slog.LevelWarn, slog.LevelDebug},
	} {
		l, err := (&Serve{LogLevel: tc.spec}).Logging(tc.quiet)
		if err != nil {
			t.Fatal(err)
		}
		if got, fed := l.Level("spirefed"), l.Level("federate"); got != tc.other || fed != tc.federate {
			t.Errorf("-log-level %q quiet=%v: levels %v/%v, want %v/%v", tc.spec, tc.quiet, got, fed, tc.other, tc.federate)
		}
	}
}

func TestSimFlagsBindConfig(t *testing.T) {
	cfg := sim.DefaultConfig()
	want := cfg
	want.Seed, want.Duration, want.TheftInterval = 7, 600, 150
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	RegisterSim(fs, &cfg)
	if err := fs.Parse([]string{"-seed", "7", "-duration", "600", "-theft-interval", "150"}); err != nil {
		t.Fatal(err)
	}
	if cfg != want {
		t.Fatalf("config %+v, want %+v", cfg, want)
	}
}

// TestListenServesPlane serves a store under its feeding lock plus a
// registry, and reads the bound URL from the log line.
func TestListenServesPlane(t *testing.T) {
	var logBuf syncBuffer
	log := slog.New(slog.NewTextHandler(&logBuf, nil))
	var mu sync.Mutex
	reg := telemetry.NewRegistry()
	reg.Counter("cli_test_total", "A test counter.").Inc()
	plane := Plane{
		Store:   query.NewStore(),
		Stats:   func() any { return "ok" },
		Lock:    &mu,
		Metrics: reg,
	}
	if err := Listen("", plane, log); err != nil || logBuf.String() != "" {
		t.Fatalf("empty addr: err %v, log %q", err, logBuf.String())
	}
	if err := Listen("127.0.0.1:0", plane, log); err != nil {
		t.Fatal(err)
	}
	_, url, ok := strings.Cut(strings.TrimSpace(logBuf.String()), "url=")
	if !ok {
		t.Fatalf("no URL logged: %q", logBuf.String())
	}
	client := &http.Client{Timeout: 10 * time.Second}
	get := func(path string) []byte {
		t.Helper()
		resp, err := client.Get(url + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %v", path, resp.StatusCode, err)
		}
		return body
	}
	var stats map[string]any
	if err := json.Unmarshal(get("v1/stats"), &stats); err != nil || stats["pipeline"] != "ok" {
		t.Fatalf("/v1/stats: %v %v", stats, err)
	}
	if !bytes.Contains(get("metrics"), []byte("cli_test_total 1")) {
		t.Fatal("/metrics lacks the registry's counter")
	}
}

// TestEndDumpsOnPanic pins that the deferred end function re-raises a
// run's panic after its flight-recorder dump.
func TestEndDumpsOnPanic(t *testing.T) {
	rec := trace.New(trace.Config{Epochs: 4})
	defer func() {
		if p := recover(); p != "boom" {
			t.Fatalf("recovered %v, want the run's panic", p)
		}
	}()
	func() {
		ctx, end := Start(rec)
		defer end()
		if ctx.Err() != nil {
			t.Fatal("context cancelled before any signal")
		}
		panic("boom")
	}()
}

// syncBuffer is a bytes.Buffer safe for a logger and a reader at once.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
