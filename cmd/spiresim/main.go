// Command spiresim generates synthetic raw RFID streams from the
// simulated warehouse of the paper's evaluation (Table II parameters).
//
// The stream is written in the binary wire format of internal/stream
// (20 bytes per <tag, reader, time> reading), suitable for piping into
// cmd/spire:
//
//	spiresim -duration 3600 -read-rate 0.85 -o trace.bin
//	spire -input trace.bin
//
// -metrics-addr serves generation progress counters on GET /metrics in
// Prometheus text format; -telemetry-dump prints a final snapshot to
// stderr. -trace-epochs keeps a flight recorder of per-epoch generation
// spans (readings, bytes, wall-clock), dumped as JSONL by -trace-dump,
// on SIGQUIT, or via GET /debug/trace on the metrics listener. None of
// these affect the generated stream. SIGINT/SIGTERM stop generation
// early but still flush the stream writer and the dumps; the truncated
// stream stays well-formed. -log-level sets the structured log level,
// optionally per component.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"spire/internal/cep"
	"spire/internal/httpapi"
	"spire/internal/model"
	"spire/internal/sim"
	"spire/internal/stream"
	"spire/internal/telemetry"
	"spire/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "spiresim:", err)
		os.Exit(1)
	}
}

// multiFlag collects repeated occurrences of a string flag.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func run() error {
	cfg := sim.DefaultConfig()
	var (
		out     = flag.String("o", "", "output file (default stdout)")
		quiet   = flag.Bool("q", false, "suppress the summary on stderr")
		seed    = flag.Int64("seed", cfg.Seed, "random seed")
		dur     = flag.Int64("duration", int64(cfg.Duration), "simulation length in epochs (seconds)")
		pallets = flag.Int64("pallet-interval", int64(cfg.PalletInterval), "epochs between pallet arrivals")
		casesMn = flag.Int("cases-min", cfg.CasesMin, "minimum cases per pallet")
		casesMx = flag.Int("cases-max", cfg.CasesMax, "maximum cases per pallet")
		items   = flag.Int("items", cfg.ItemsPerCase, "items per case")
		rate    = flag.Float64("read-rate", cfg.ReadRate, "per-interrogation read rate (0..1)")
		shelfP  = flag.Int64("shelf-period", int64(cfg.ShelfPeriod), "shelf reader period in epochs")
		shelves = flag.Int("shelves", cfg.NumShelves, "number of shelf locations")
		shelfT  = flag.Int64("shelf-time", int64(cfg.ShelfTime), "mean shelving duration in epochs")
		theft   = flag.Int64("theft-interval", int64(cfg.TheftInterval), "epochs between thefts (0 = none)")
		misrt   = flag.Int64("misroute-interval", int64(cfg.MisrouteInterval), "epochs between misroutes — cases diverted off outbound pallets (0 = none)")
		coldP   = flag.Int("cold-case-period", cfg.ColdCasePeriod, "every Nth injected case is cold-chain cargo on the cold shelf (0 = none)")
		excI    = flag.Int64("excursion-interval", int64(cfg.ExcursionInterval), "epochs between cold-chain excursions (0 = none; needs -cold-case-period)")
		excD    = flag.Int64("excursion-dwell", int64(cfg.ExcursionDwell), "epochs an excursed cold case dwells on a warm shelf")
		shufI   = flag.Int64("cold-shuffle-interval", int64(cfg.ColdShuffleInterval), "epochs between benign cold-case shuffles (0 = none; needs -cold-case-period)")
		shufD   = flag.Int64("cold-shuffle-dwell", int64(cfg.ColdShuffleDwell), "epochs a shuffled cold case dwells on a warm shelf")

		metricsAddr = flag.String("metrics-addr", "", "serve GET /metrics (Prometheus text format) on this address while generating")
		telDump     = flag.Bool("telemetry-dump", false, "print a final metrics snapshot to stderr")

		traceEpochs = flag.Int("trace-epochs", 0, "flight-recorder capacity in epochs (0 = default 256 when tracing is otherwise enabled)")
		traceTags   = flag.String("trace-tags", "", "accepted for symmetry with cmd/spire; the generator makes no per-tag decisions, so only epoch spans are recorded")
		traceDump   = flag.String("trace-dump", "", "write the flight recorder as JSONL to this file at exit")
		logSpec     = flag.String("log-level", "", "log level (debug|info|warn|error), optionally per component: 'warn,metrics=debug'")
	)
	var subscribePatterns multiFlag
	flag.Var(&subscribePatterns, "subscribe", "accepted for symmetry with cmd/spire: patterns are validated, but the generator runs no interpretation, so nothing matches here — pipe the stream into spire -subscribe instead")
	flag.Parse()
	logging, err := trace.NewLogging(os.Stderr, *logSpec)
	if err != nil {
		return err
	}
	logMain := logging.Component("spiresim")

	cfg.Seed = *seed
	cfg.Duration = model.Epoch(*dur)
	cfg.PalletInterval = model.Epoch(*pallets)
	cfg.CasesMin, cfg.CasesMax = *casesMn, *casesMx
	cfg.ItemsPerCase = *items
	cfg.ReadRate = *rate
	cfg.ShelfPeriod = model.Epoch(*shelfP)
	cfg.NumShelves = *shelves
	cfg.ShelfTime = model.Epoch(*shelfT)
	cfg.TheftInterval = model.Epoch(*theft)
	cfg.MisrouteInterval = model.Epoch(*misrt)
	cfg.ColdCasePeriod = *coldP
	cfg.ExcursionInterval, cfg.ExcursionDwell = model.Epoch(*excI), model.Epoch(*excD)
	cfg.ColdShuffleInterval, cfg.ColdShuffleDwell = model.Epoch(*shufI), model.Epoch(*shufD)

	for _, p := range subscribePatterns {
		if err := cep.Validate(p); err != nil {
			return fmt.Errorf("-subscribe %q: %w", p, err)
		}
		logMain.Warn("pattern accepted but the generator runs no interpretation; pipe into spire -subscribe to match it", "pattern", p)
	}

	s, err := sim.New(cfg)
	if err != nil {
		return err
	}

	// Progress counters for long generations; scraping them never touches
	// the simulator state, so the generated stream is unaffected.
	var reg *telemetry.Registry
	var epochsC, readingsC, bytesC *telemetry.Counter
	if *metricsAddr != "" || *telDump {
		reg = telemetry.NewRegistry()
		epochsC = reg.Counter("spiresim_epochs_total", "Simulated epochs generated.")
		readingsC = reg.Counter("spiresim_readings_total", "Raw tag readings written.")
		bytesC = reg.Counter("spiresim_bytes_total", "Raw stream bytes written.")
	}

	// The generator makes no per-tag inference decisions, so its recorder
	// carries epoch spans only: per-epoch readings, bytes, and wall-clock.
	var rec *trace.Recorder
	if *traceEpochs > 0 || *traceTags != "" || *traceDump != "" {
		if _, _, err := trace.ParseTags(*traceTags); err != nil {
			return err
		}
		rec = trace.New(trace.Config{Epochs: *traceEpochs})
	}

	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		h := httpapi.New(nil, nil).EnableMetrics(reg)
		if rec != nil {
			h.EnableTrace(rec)
		}
		logMain.Info("serving metrics", "url", fmt.Sprintf("http://%s/metrics", ln.Addr()))
		go func() {
			if err := http.Serve(ln, h); err != nil {
				logMain.Error("metrics server failed", "error", err)
			}
		}()
	}

	// SIGINT/SIGTERM stop generation at the next epoch boundary; the
	// writer and dumps still flush below, so a truncated stream stays
	// well-formed. SIGQUIT dumps the flight recorder and continues.
	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSig()
	if rec != nil {
		sigq := make(chan os.Signal, 1)
		signal.Notify(sigq, syscall.SIGQUIT)
		defer signal.Stop(sigq)
		go func() {
			for range sigq {
				fmt.Fprintln(os.Stderr, "spiresim: SIGQUIT, dumping flight recorder:")
				_ = rec.DumpJSONL(os.Stderr)
			}
		}()
	}

	var dst io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}
	w := stream.NewWriter(dst)
	var lastReadings, lastBytes int64
	var b model.Batch
	interrupted := false
	for !s.Done() {
		if ctx.Err() != nil {
			interrupted = true
			logMain.Warn("interrupted, flushing stream and dumps", "epoch", s.Now())
			break
		}
		var mark time.Time
		if rec != nil {
			mark = time.Now()
		}
		if err := s.StepBatch(&b); err != nil {
			return err
		}
		if err := w.WriteBatch(&b); err != nil {
			return err
		}
		if reg != nil {
			epochsC.Inc()
			readingsC.Add(w.Count() - lastReadings)
			bytesC.Add(w.Bytes() - lastBytes)
		}
		if rec != nil {
			rec.EndEpoch(trace.Span{
				Epoch:    b.Time,
				Readings: w.Count() - lastReadings,
				Bytes:    w.Bytes() - lastBytes,
				UpdateNS: time.Since(mark).Nanoseconds(),
			})
		}
		if reg != nil || rec != nil {
			lastReadings, lastBytes = w.Count(), w.Bytes()
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if *telDump {
		fmt.Fprintln(os.Stderr, "spiresim: final telemetry snapshot:")
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
	if !*quiet {
		logMain.Info("generation complete",
			"epochs", s.Now(), "readings", w.Count(), "bytes", w.Bytes(),
			"thefts", len(s.Thefts()), "misroutes", len(s.Misroutes()),
			"excursions", len(s.Excursions()), "cold_shuffles", len(s.ColdShuffles()),
			"peak_population", s.SteadyStateCount(),
			"interrupted", interrupted)
	}
	return nil
}
