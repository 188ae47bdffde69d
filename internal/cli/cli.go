// Package cli is the command-line surface the long-running SPIRE
// binaries share: their common flag groups, the one HTTP serving
// assembly, and the run lifecycle (signals and flight-recorder dumps).
//
// Each binary registers the groups it needs with one call per group:
//
//   - Serve (-metrics-addr, -pprof, -log-level): spire, spiresim,
//     spirefed and spirezone.
//   - Recorder (-telemetry-dump, -trace-epochs, -trace-dump): spire and
//     spiresim. -trace-tags stays in spire, the only binary that makes
//     per-tag decisions.
//   - Sim (-seed, -duration, -theft-interval), bound straight into a
//     sim.Config: spire, spiresim and spirezone.
//
// Two things deliberately stay per binary. The checkpoint flags look
// alike but mean different things: spire's -checkpoint-every defaults to
// 60 and a run resumes only from an explicit -restore, while spirezone's
// defaults to 50 and a worker resumes whenever its checkpoint file is
// present. And the substrate → store → CEP assembly shares no step
// between binaries: spire hands each runner output to Engine.Epoch,
// spirefed feeds a writer and a store under one lock, and spirequery
// replays a decompressor into a store, so shared code would have to
// branch on its caller.
package cli

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"

	"spire/internal/cep"
	"spire/internal/httpapi"
	"spire/internal/query"
	"spire/internal/sim"
	"spire/internal/telemetry"
	"spire/internal/trace"
)

// MultiFlag collects a repeatable string flag.
type MultiFlag []string

func (m *MultiFlag) String() string     { return strings.Join(*m, ", ") }
func (m *MultiFlag) Set(v string) error { *m = append(*m, v); return nil }

// Serve is the operator flag group of the pipeline binaries.
type Serve struct {
	MetricsAddr string
	Pprof       bool
	LogLevel    string
}

// RegisterServe registers -metrics-addr, -pprof and -log-level on fs.
func RegisterServe(fs *flag.FlagSet) *Serve {
	s := new(Serve)
	fs.StringVar(&s.MetricsAddr, "metrics-addr", "", "serve /metrics and the binary's trace, subscription and cluster routes on this address while running")
	fs.BoolVar(&s.Pprof, "pprof", false, "also serve /debug/pprof (on -metrics-addr, else on a free localhost port)")
	fs.StringVar(&s.LogLevel, "log-level", "", "log level (debug|info|warn|error), optionally per component: 'warn,federate=debug'")
	return s
}

// Addr is the address the operator plane listens on: -metrics-addr, a
// free localhost port when only -pprof is set, or "" for no plane.
func (s *Serve) Addr() string {
	if s.MetricsAddr == "" && s.Pprof {
		return "localhost:0"
	}
	return s.MetricsAddr
}

// Logging builds the binary's stderr loggers from -log-level. quiet
// raises the default level to warn; a level -log-level names still wins.
func (s *Serve) Logging(quiet bool) (*trace.Logging, error) {
	spec := s.LogLevel
	if quiet {
		spec = "warn," + spec
	}
	return trace.NewLogging(os.Stderr, spec)
}

// Recorder is the flight-recorder and end-of-run dump flag group.
type Recorder struct {
	TelemetryDump bool
	TraceEpochs   int
	TraceDump     string
}

// RegisterRecorder registers -telemetry-dump, -trace-epochs and
// -trace-dump on fs.
func RegisterRecorder(fs *flag.FlagSet) *Recorder {
	r := new(Recorder)
	fs.BoolVar(&r.TelemetryDump, "telemetry-dump", false, "print a final metrics snapshot to stderr after the run")
	fs.IntVar(&r.TraceEpochs, "trace-epochs", 0, "flight-recorder capacity in epochs (0 = default 256 when tracing is otherwise enabled)")
	fs.StringVar(&r.TraceDump, "trace-dump", "", "write the flight recorder and any provenance records as JSONL to this file at exit")
	return r
}

// Tracing reports whether the flags ask for a flight recorder.
func (r *Recorder) Tracing() bool { return r.TraceEpochs > 0 || r.TraceDump != "" }

// Dump writes the end-of-run dumps the flags ask for: reg's snapshot to
// stderr and rec to the -trace-dump file.
func (r *Recorder) Dump(reg *telemetry.Registry, rec *trace.Recorder, log *slog.Logger) error {
	if r.TelemetryDump {
		fmt.Fprintf(os.Stderr, "%s: final telemetry snapshot:\n", name())
		if err := reg.WritePrometheus(os.Stderr); err != nil {
			return err
		}
	}
	if r.TraceDump == "" {
		return nil
	}
	f, err := os.Create(r.TraceDump)
	if err != nil {
		return fmt.Errorf("trace dump: %w", err)
	}
	if err := rec.DumpJSONL(f); err != nil {
		f.Close()
		return fmt.Errorf("trace dump: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace dump: %w", err)
	}
	log.Info("wrote trace dump", "path", r.TraceDump)
	return nil
}

// RegisterSim registers -seed, -duration and -theft-interval on fs,
// bound straight into cfg's fields with cfg's values as defaults.
func RegisterSim(fs *flag.FlagSet, cfg *sim.Config) {
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "simulation seed (identical across a cluster)")
	fs.Int64Var((*int64)(&cfg.Duration), "duration", int64(cfg.Duration), "simulated duration in epochs (seconds)")
	fs.Int64Var((*int64)(&cfg.TheftInterval), "theft-interval", int64(cfg.TheftInterval), "steal a shelved case every N epochs (0 = none)")
}

// Plane is what a binary serves over HTTP. Nil fields stay off.
type Plane struct {
	Store *query.Store // the /v1 query routes
	Stats httpapi.StatsFunc
	// Lock, when set, is held around every request: the binary feeds
	// Store while serving it.
	Lock    sync.Locker
	Metrics *telemetry.Registry
	Pprof   bool
	Trace   *trace.Recorder
	CEP     *cep.Engine
	Cluster func() any
	Ready   func() error
	Conn    *trace.ConnRecorder
}

// Listen serves p on addr for the rest of the process's life; an empty
// addr serves nothing. It logs the bound URL, and logs a server failure
// rather than dropping it.
func Listen(addr string, p Plane, log *slog.Logger) error {
	if addr == "" {
		return nil
	}
	api := httpapi.New(p.Store, p.Stats)
	if p.Metrics != nil {
		api.EnableMetrics(p.Metrics)
	}
	if p.Pprof {
		api.EnablePprof()
	}
	if p.Trace != nil {
		api.EnableTrace(p.Trace)
	}
	if p.CEP != nil {
		api.EnableCEP(p.CEP)
	}
	if p.Cluster != nil {
		api.EnableClusterStatus(p.Cluster)
	}
	if p.Ready != nil {
		api.EnableHealth(p.Ready)
	}
	if p.Conn != nil {
		api.EnableConnTrace(p.Conn)
	}
	var h http.Handler = api
	if p.Lock != nil {
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			p.Lock.Lock()
			defer p.Lock.Unlock()
			api.ServeHTTP(w, r)
		})
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", addr, err)
	}
	log.Info("serving", "url", "http://"+ln.Addr().String()+"/")
	go func() {
		if err := http.Serve(ln, h); err != nil {
			log.Error("http server failed", "addr", ln.Addr().String(), "error", err)
		}
	}()
	return nil
}

// Start begins a run. The returned context is cancelled by SIGINT or
// SIGTERM, for a graceful shutdown that still flushes output and dumps.
// Until the run ends, SIGQUIT dumps rec (when non-nil) to stderr and the
// run continues. Defer the returned end function directly: it releases
// the signals and, if the run panics, dumps rec before re-raising, since
// the last epochs' spans are the forensics a crash needs.
func Start(rec *trace.Recorder) (ctx context.Context, end func()) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	sigq := make(chan os.Signal, 1)
	if rec != nil {
		signal.Notify(sigq, syscall.SIGQUIT)
		go func() {
			for range sigq {
				dump(rec, "SIGQUIT")
			}
		}()
	}
	return ctx, func() {
		signal.Stop(sigq)
		close(sigq)
		stop()
		if p := recover(); p != nil {
			dump(rec, "panic")
			panic(p)
		}
	}
}

// dump writes rec to stderr as JSONL under a line naming why.
func dump(rec *trace.Recorder, why string) {
	if rec == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "%s: %s, dumping flight recorder:\n", name(), why)
	_ = rec.DumpJSONL(os.Stderr) // best effort: stderr is the last resort
}

// name is the running binary's name, the prefix of its plain stderr lines.
func name() string { return filepath.Base(os.Args[0]) }
