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
// stream stays well-formed. The shared flag groups are internal/cli's.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"spire/internal/cli"
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

// epochVar registers an epoch-valued flag bound to p, defaulting to *p.
func epochVar(p *model.Epoch, name, usage string) {
	flag.Int64Var((*int64)(p), name, int64(*p), usage)
}

func run() error {
	cfg := sim.DefaultConfig()
	cli.RegisterSim(flag.CommandLine, &cfg)
	epochVar(&cfg.PalletInterval, "pallet-interval", "epochs between pallet arrivals")
	flag.IntVar(&cfg.CasesMin, "cases-min", cfg.CasesMin, "minimum cases per pallet")
	flag.IntVar(&cfg.CasesMax, "cases-max", cfg.CasesMax, "maximum cases per pallet")
	flag.IntVar(&cfg.ItemsPerCase, "items", cfg.ItemsPerCase, "items per case")
	flag.Float64Var(&cfg.ReadRate, "read-rate", cfg.ReadRate, "per-interrogation read rate (0..1)")
	epochVar(&cfg.ShelfPeriod, "shelf-period", "shelf reader period in epochs")
	flag.IntVar(&cfg.NumShelves, "shelves", cfg.NumShelves, "number of shelf locations")
	epochVar(&cfg.ShelfTime, "shelf-time", "mean shelving duration in epochs")
	epochVar(&cfg.MisrouteInterval, "misroute-interval", "epochs between misroutes — cases diverted off outbound pallets (0 = none)")
	flag.IntVar(&cfg.ColdCasePeriod, "cold-case-period", cfg.ColdCasePeriod, "every Nth injected case is cold-chain cargo on the cold shelf (0 = none)")
	epochVar(&cfg.ExcursionInterval, "excursion-interval", "epochs between cold-chain excursions (0 = none; needs -cold-case-period)")
	epochVar(&cfg.ExcursionDwell, "excursion-dwell", "epochs an excursed cold case dwells on a warm shelf")
	epochVar(&cfg.ColdShuffleInterval, "cold-shuffle-interval", "epochs between benign cold-case shuffles (0 = none; needs -cold-case-period)")
	epochVar(&cfg.ColdShuffleDwell, "cold-shuffle-dwell", "epochs a shuffled cold case dwells on a warm shelf")
	out := flag.String("o", "", "output file (default stdout)")
	quiet := flag.Bool("q", false, "suppress the summary on stderr")
	srv := cli.RegisterServe(flag.CommandLine)
	obs := cli.RegisterRecorder(flag.CommandLine)
	flag.Parse()
	logging, err := srv.Logging(false)
	if err != nil {
		return err
	}
	logMain := logging.Component("spiresim")

	s, err := sim.New(cfg)
	if err != nil {
		return err
	}

	// Progress counters for long generations; scraping them never touches
	// the simulator state, so the generated stream is unaffected.
	var reg *telemetry.Registry
	var epochsC, readingsC, bytesC *telemetry.Counter
	if srv.Addr() != "" || obs.TelemetryDump {
		reg = telemetry.NewRegistry()
		epochsC = reg.Counter("spiresim_epochs_total", "Simulated epochs generated.")
		readingsC = reg.Counter("spiresim_readings_total", "Raw tag readings written.")
		bytesC = reg.Counter("spiresim_bytes_total", "Raw stream bytes written.")
	}

	// The generator makes no per-tag inference decisions, so its recorder
	// carries epoch spans only: per-epoch readings, bytes, and wall-clock.
	var rec *trace.Recorder
	if obs.Tracing() {
		rec = trace.New(trace.Config{Epochs: obs.TraceEpochs})
	}
	ctx, end := cli.Start(rec)
	defer end()

	if err := cli.Listen(srv.Addr(), cli.Plane{Metrics: reg, Pprof: srv.Pprof, Trace: rec}, logMain); err != nil {
		return err
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
	if err := obs.Dump(reg, rec, logMain); err != nil {
		return err
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
