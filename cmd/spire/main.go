// Command spire runs the SPIRE interpretation and compression substrate
// over a raw RFID stream and emits the compressed event stream.
//
// The input is either a binary raw stream produced by cmd/spiresim for
// the default warehouse deployment (-input), or a freshly simulated trace
// (-simulate, the default). Events are printed in the paper's message
// notation, or written in the binary event wire format with -o.
//
//	spire -simulate -duration 1800 -level 2 -o events.bin
//	spiresim -duration 1800 | spire -input -
//
// Crash recovery: -checkpoint writes an atomic snapshot of the full
// pipeline state every -checkpoint-every epochs (and at end of input);
// -restore resumes from such a snapshot, skipping already-processed
// epochs of the replayed input, and continues the event stream exactly
// where the snapshot left off:
//
//	spire -simulate -checkpoint state.ckpt -o events.bin
//	spire -simulate -restore state.ckpt -checkpoint state.ckpt -o more-events.bin
//
// -ingest-policy selects how malformed input ordering is handled: strict
// (fail the run), reject (drop stale/duplicate epochs), or repair
// (reorder and merge within a window).
//
// Telemetry: -metrics-addr serves GET /metrics (Prometheus text format)
// with per-stage latency histograms, graph gauges, and compressor
// counters while the pipeline runs; -pprof additionally mounts
// /debug/pprof on the same listener; -telemetry-dump prints a final
// metrics snapshot to stderr after the run. Instrumentation is
// observation-only — the emitted event stream and checkpoints are
// byte-identical with or without it.
//
// Tracing: -trace-epochs keeps a flight recorder of the last N epochs'
// spans; -trace-tags records per-tag decision provenance ('all' or a
// comma-separated tag list), served as GET /v1/explain/{tag} and
// GET /debug/trace on the metrics listener; -trace-dump writes the
// recorder as JSONL at exit. SIGQUIT dumps the recorder to stderr while
// the run continues; SIGINT/SIGTERM shut down gracefully, flushing the
// output sink, a final checkpoint, and the telemetry/trace dumps. Like
// telemetry, tracing is observation-only. -log-level sets the structured
// log level, optionally per component ("warn,ingest=debug").
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"strings"

	"spire/internal/cep"
	"spire/internal/core"
	"spire/internal/epc"
	"spire/internal/event"
	"spire/internal/httpapi"
	"spire/internal/inference"
	"spire/internal/model"
	"spire/internal/query"
	"spire/internal/sim"
	"spire/internal/stream"
	"spire/internal/telemetry"
	"spire/internal/trace"
)

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ", ") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "spire:", err)
		os.Exit(1)
	}
}

func run() error {
	simCfg := sim.DefaultConfig()
	var (
		input    = flag.String("input", "", "raw stream file ('-' for stdin); readings must come from the default warehouse layout")
		simulate = flag.Bool("simulate", false, "generate the trace in-process instead of reading one")
		out      = flag.String("o", "", "write events in binary wire format to this file instead of printing")
		level    = flag.Int("level", 1, "compression level (1 = range, 2 = containment-based)")
		duration = flag.Int64("duration", int64(simCfg.Duration), "simulated duration in epochs (with -simulate)")
		rate     = flag.Float64("read-rate", simCfg.ReadRate, "simulated read rate (with -simulate)")
		shelfP   = flag.Int64("shelf-period", int64(simCfg.ShelfPeriod), "shelf reader period (with -simulate)")
		theft    = flag.Int64("theft-interval", int64(simCfg.TheftInterval), "simulated theft interval (with -simulate)")
		seed     = flag.Int64("seed", simCfg.Seed, "simulation seed (with -simulate)")
		beta     = flag.Float64("beta", inference.DefaultConfig().Beta, "edge inference β")
		gamma    = flag.Float64("gamma", inference.DefaultConfig().Gamma, "node inference γ")
		theta    = flag.Float64("theta", inference.DefaultConfig().Theta, "node inference θ")
		adaptive = flag.Bool("adaptive-beta", false, "use the adaptive β heuristic")
		prune    = flag.Float64("prune", 0, "edge prune threshold (0 = off)")

		ckptPath  = flag.String("checkpoint", "", "write atomic pipeline snapshots to this file")
		ckptEvery = flag.Int("checkpoint-every", 60, "epochs between checkpoints (with -checkpoint)")
		restore   = flag.String("restore", "", "resume from a snapshot file written by -checkpoint")
		policy    = flag.String("ingest-policy", "strict", "malformed-input policy: strict, reject, or repair")

		metricsAddr = flag.String("metrics-addr", "", "serve GET /metrics (Prometheus text format) on this address while running")
		pprofFlag   = flag.Bool("pprof", false, "also serve /debug/pprof on -metrics-addr")
		telDump     = flag.Bool("telemetry-dump", false, "print a final metrics snapshot to stderr after the run")

		traceEpochs = flag.Int("trace-epochs", 0, "flight-recorder capacity in epochs (0 = default 256 when tracing is otherwise enabled)")
		traceTags   = flag.String("trace-tags", "", "record per-tag decision provenance: 'all' or comma-separated decimal tags")
		traceDump   = flag.String("trace-dump", "", "write the flight recorder and provenance records as JSONL to this file at exit")
		logSpec     = flag.String("log-level", "", "log level (debug|info|warn|error), optionally per component: 'warn,ingest=debug'")
	)
	var subscribePatterns multiFlag
	flag.Var(&subscribePatterns, "subscribe", "register a complex-event subscription pattern, e.g. 'SEQ(missing(), NOT start()) WITHIN 120' (repeatable); matches log as they fire, and -metrics-addr additionally serves /v1/subscriptions")
	flag.Parse()
	logging, err := trace.NewLogging(os.Stderr, *logSpec)
	if err != nil {
		return err
	}
	logMain := logging.Component("spire")
	if *input == "" && !*simulate {
		*simulate = true
	}
	ingestPolicy, ok := core.ParseIngestPolicy(*policy)
	if !ok {
		return fmt.Errorf("unknown ingest policy %q (want strict, reject, or repair)", *policy)
	}

	simCfg.Seed = *seed
	simCfg.Duration = model.Epoch(*duration)
	simCfg.ReadRate = *rate
	simCfg.ShelfPeriod = model.Epoch(*shelfP)
	simCfg.TheftInterval = model.Epoch(*theft)
	s, err := sim.New(simCfg)
	if err != nil {
		return err
	}

	var sub *core.Substrate
	if *restore != "" {
		// A snapshot is self-contained: it carries the reader deployment
		// and inference parameters, so the tuning flags are ignored here.
		sub, err = core.RestoreSubstrateFromFile(*restore)
		if err != nil {
			return fmt.Errorf("restore %s: %w", *restore, err)
		}
		logMain.Info("restored snapshot", "path", *restore, "epoch", sub.LastEpoch())
	} else {
		icfg := inference.DefaultConfig()
		icfg.Beta, icfg.Gamma, icfg.Theta = *beta, *gamma, *theta
		icfg.AdaptiveBeta = *adaptive
		icfg.PruneThreshold = *prune
		sub, err = core.New(core.Config{
			Readers:     s.Readers(),
			Locations:   s.Locations(),
			Inference:   icfg,
			Compression: core.CompressionLevel(*level),
		})
		if err != nil {
			return err
		}
	}

	// Telemetry is opt-in: with no registry the substrate keeps its
	// uninstrumented hot path. Instrument after the restore branch so a
	// resumed run is observable too.
	var reg *telemetry.Registry
	if *metricsAddr != "" || *telDump || *pprofFlag {
		reg = telemetry.NewRegistry()
		sub.Instrument(reg)
	}

	// Tracing is likewise opt-in: any trace flag attaches a recorder.
	var rec *trace.Recorder
	if *traceEpochs > 0 || *traceTags != "" || *traceDump != "" {
		all, tags, err := trace.ParseTags(*traceTags)
		if err != nil {
			return err
		}
		rec = trace.New(trace.Config{Epochs: *traceEpochs, All: all, Tags: tags})
		sub.Trace(rec)
	}
	// On panic, salvage the flight recorder before dying: the last few
	// epochs' spans are exactly the forensics a crash needs.
	defer func() {
		if p := recover(); p != nil {
			if rec != nil {
				fmt.Fprintln(os.Stderr, "spire: panic, dumping flight recorder:")
				_ = rec.DumpJSONL(os.Stderr)
			}
			panic(p)
		}
	}()

	// Subscriptions are opt-in like telemetry and tracing: the engine
	// rides the watcher hook behind the substrate, so with no -subscribe
	// flag the pipeline output stays byte-identical and unwatched.
	var engine *cep.Engine
	if len(subscribePatterns) > 0 {
		engine = cep.NewEngine(cep.Config{})
		logCEP := logging.Component("cep")
		for _, p := range subscribePatterns {
			id, err := engine.SubscribeFunc(p, func(m cep.Match) {
				logCEP.Info("match", "sub", m.Sub, "object", m.Object, "start", m.Start, "at", m.At)
			})
			if err != nil {
				return fmt.Errorf("-subscribe %q: %w", p, err)
			}
			logCEP.Info("subscribed", "id", id, "pattern", p)
		}
		if reg != nil {
			engine.Instrument(reg)
		}
		w := query.NewWatcher()
		engine.Attach(w)
		sub.Watch(w)
	}

	if *metricsAddr != "" || *pprofFlag {
		addr := *metricsAddr
		if addr == "" {
			addr = "localhost:0"
		}
		h := httpapi.New(nil, nil).EnableMetrics(reg)
		if *pprofFlag {
			h.EnablePprof()
		}
		if rec != nil {
			h.EnableTrace(rec)
		}
		if engine != nil {
			h.EnableCEP(engine)
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		logMain.Info("serving metrics", "url", fmt.Sprintf("http://%s/metrics", ln.Addr()))
		go func() {
			if err := http.Serve(ln, h); err != nil {
				logMain.Error("metrics server failed", "error", err)
			}
		}()
	}

	emit, flush, err := makeSink(*out)
	if err != nil {
		return err
	}

	runner := core.NewRunnerConfigured(sub, core.RunnerConfig{
		CheckpointPath:  *ckptPath,
		CheckpointEvery: *ckptEvery,
		Ingest:          core.IngestConfig{Policy: ingestPolicy},
	})

	// SIGINT/SIGTERM cancel the runner's context for a graceful shutdown:
	// the output sink, a final checkpoint, and the telemetry/trace dumps
	// all still flush. SIGQUIT dumps the flight recorder to stderr and
	// lets the run continue.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if rec != nil {
		sigq := make(chan os.Signal, 1)
		signal.Notify(sigq, syscall.SIGQUIT)
		defer signal.Stop(sigq)
		go func() {
			for range sigq {
				fmt.Fprintln(os.Stderr, "spire: SIGQUIT, dumping flight recorder:")
				_ = rec.DumpJSONL(os.Stderr)
			}
		}()
	}

	// Feed batches to the runner, skipping epochs a restored snapshot
	// already processed (the input is replayed from its beginning). A
	// few epochs of buffer let decoding run ahead of processing.
	skipThrough := sub.LastEpoch()
	in := make(chan *model.Batch, 4)
	outCh := make(chan *core.EpochOutput, 4)
	feedErr := make(chan error, 1)
	runErr := make(chan error, 1)
	go func() {
		defer close(in)
		if *simulate {
			feedErr <- feedSim(s, skipThrough, in)
		} else {
			feedErr <- feedStream(*input, skipThrough, in)
		}
	}()
	go func() { runErr <- runner.Run(ctx, in, outCh) }()

	for po := range outCh {
		if err := emit(po.Events); err != nil {
			return err
		}
	}
	switch err := <-runErr; {
	case err == nil:
		if err := <-feedErr; err != nil {
			return err
		}
	case errors.Is(err, context.Canceled):
		// Interrupted: the feed goroutine may be blocked sending into
		// in, so don't wait on it. The runner has quiesced, so the
		// substrate is safe to snapshot; then fall through to the normal
		// flush/dump path.
		logMain.Warn("interrupted, flushing output and dumps")
		if *ckptPath != "" {
			if cerr := sub.SnapshotToFile(*ckptPath); cerr != nil {
				logMain.Error("final checkpoint failed", "error", cerr)
			} else {
				logMain.Info("wrote final checkpoint", "path", *ckptPath, "epoch", sub.LastEpoch())
			}
		}
	default:
		return err
	}
	if err := flush(); err != nil {
		return err
	}

	st := sub.Stats()
	ratio := 0.0
	if st.RawBytes > 0 {
		ratio = float64(st.EventBytes) / float64(st.RawBytes)
	}
	logMain.Info("run complete",
		"epochs", st.Epochs, "readings", st.Readings, "raw_bytes", st.RawBytes,
		"events", st.Events, "event_bytes", st.EventBytes, "ratio", ratio,
		"update", st.UpdateTime, "inference", st.InferenceTime)
	if engine != nil {
		logCEP := logging.Component("cep")
		for _, sst := range engine.Subscriptions() {
			logCEP.Info("subscription summary",
				"id", sst.ID, "pattern", sst.Pattern,
				"matches", sst.Matches, "dropped", sst.Dropped, "evicted", sst.Evicted)
		}
	}
	if ingestPolicy != core.IngestStrict {
		ist := runner.IngestStats()
		logging.Component("ingest").Info("ingest summary",
			"policy", ingestPolicy.String(),
			"accepted", ist.Accepted, "stale", ist.Stale,
			"merged", ist.Merged, "reordered", ist.Reordered)
	}
	if *telDump {
		fmt.Fprintln(os.Stderr, "spire: final telemetry snapshot:")
		if err := reg.WritePrometheus(os.Stderr); err != nil {
			return err
		}
	}
	if *traceDump != "" {
		f, err := os.Create(*traceDump)
		if err != nil {
			return fmt.Errorf("trace dump: %w", err)
		}
		if err := rec.DumpJSONL(f); err != nil {
			f.Close()
			return fmt.Errorf("trace dump: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		logMain.Info("wrote trace dump", "path", *traceDump)
	}
	return nil
}

// feedSim streams freshly simulated batches.
func feedSim(s *sim.Simulator, skipThrough model.Epoch, in chan<- *model.Batch) error {
	for !s.Done() {
		b, err := s.Step()
		if err != nil {
			return err
		}
		if b.Time > skipThrough {
			in <- b
		}
	}
	return nil
}

// feedStream parses a raw binary reading stream into per-epoch batches.
// Epoch-0 readings are treated as preamble and skipped. An epoch is sent
// only once the next one has decoded cleanly, so a torn record drops the
// epoch it was read in.
func feedStream(path string, skipThrough model.Epoch, in chan<- *model.Batch) error {
	var src io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	r := stream.NewBatchReader(src)
	held := model.NewBatch(0)
	for {
		b := new(model.Batch)
		switch err := r.ReadBatch(b); {
		case err == io.EOF:
			b = nil
		case err != nil:
			return err
		case b.Time < held.Time:
			return fmt.Errorf("raw stream not ordered by epoch (%d after %d)", b.Time, held.Time)
		}
		if held.Time != 0 && held.Time > skipThrough {
			in <- held
		}
		if b == nil {
			return nil
		}
		held = b
	}
}

// pretty renders an event with decoded EPC identities instead of raw
// 64-bit tags.
func pretty(e event.Event) string {
	name := func(g model.Tag) string {
		id, err := epc.Decode(g)
		if err != nil {
			return fmt.Sprintf("%d", g)
		}
		return fmt.Sprintf("%s-%d.%d", id.Level, id.ItemRef, id.Serial)
	}
	ve := fmt.Sprintf("%d", e.Ve)
	if e.Ve == model.InfiniteEpoch {
		ve = "inf"
	}
	if e.Kind.Containment() {
		return fmt.Sprintf("%s(%s, %s, %d, %s)", e.Kind, name(e.Object), name(e.Container), e.Vs, ve)
	}
	return fmt.Sprintf("%s(%s, %v, %d, %s)", e.Kind, name(e.Object), e.Location, e.Vs, ve)
}

// makeSink returns an event consumer: pretty printing to stdout, or the
// binary wire format when path is set.
func makeSink(path string) (emit func([]event.Event) error, flush func() error, err error) {
	if path == "" {
		w := bufio.NewWriter(os.Stdout)
		return func(evs []event.Event) error {
				for _, e := range evs {
					if _, err := fmt.Fprintln(w, pretty(e)); err != nil {
						return err
					}
				}
				return nil
			}, func() error {
				return w.Flush()
			}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	w := event.NewWriter(f)
	return func(evs []event.Event) error {
			for _, e := range evs {
				if err := w.Write(e); err != nil {
					return err
				}
			}
			return nil
		}, func() error {
			if err := w.Flush(); err != nil {
				return err
			}
			return f.Close()
		}, nil
}
