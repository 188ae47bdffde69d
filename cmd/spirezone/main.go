// Command spirezone runs one zone of a distributed SPIRE deployment.
//
// The warehouse's locations are partitioned into -zones contiguous
// zones; this process interprets zone -zone: it runs the deterministic
// warehouse simulation from -seed, feeds its own zone's readers through
// a full interpretation substrate, and streams the per-epoch compressed
// output to the federation coordinator (cmd/spirefed) at -addr.
//
// The worker consumes the columnar zone-batch feed: the simulation
// observes only this zone's readers into reusable columns and the
// substrate ingests them without per-reading staging, so a zone's ingest
// cost scales with its own traffic, not the whole deployment's.
//
// The connection is resilient: the worker retries with capped
// exponential backoff, keeps every un-acked epoch in a replay buffer,
// and re-synchronizes from the coordinator's ack high-water mark on
// reconnect. With -checkpoint, the substrate is snapshotted every
// -checkpoint-every epochs and the snapshot persisted once the
// coordinator acks past it; restarting the same command line resumes
// from the checkpoint and replays the simulation, delivering exactly
// the epochs the coordinator has not merged.
//
// A 2-zone cluster on loopback:
//
//	spirefed -zones 2 -listen 127.0.0.1:7412 -o merged.bin &
//	spirezone -zone 0 -zones 2 -addr 127.0.0.1:7412 -checkpoint z0.ckpt &
//	spirezone -zone 1 -zones 2 -addr 127.0.0.1:7412 -checkpoint z1.ckpt &
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"spire/internal/core"
	"spire/internal/federate"
	"spire/internal/httpapi"
	"spire/internal/inference"
	"spire/internal/model"
	"spire/internal/sim"
	"spire/internal/telemetry"
	"spire/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "spirezone:", err)
		os.Exit(1)
	}
}

func run() error {
	simCfg := sim.DefaultConfig()
	var (
		zone        = flag.Int("zone", -1, "this worker's zone ID (0-based)")
		zones       = flag.Int("zones", 2, "total zones in the cluster")
		addr        = flag.String("addr", "127.0.0.1:7412", "coordinator address")
		level       = flag.Int("level", 1, "compression level (1 or 2)")
		ckpt        = flag.String("checkpoint", "", "checkpoint file; written on ack, resumed from when present")
		ckptEvery   = flag.Int64("checkpoint-every", 50, "epochs between checkpoint snapshots")
		ackWindow   = flag.Int("ack-window", 64, "max epochs in flight past the coordinator's acks")
		jitterSeed  = flag.Int64("jitter-seed", 0, "seed for reconnect-backoff jitter (0 derives one from the clock and zone)")
		metricsAddr = flag.String("metrics-addr", "", "serve the worker health plane on this address: /metrics, /v1/cluster, /healthz, /readyz, /debug/fedtrace")
		pprofFlag   = flag.Bool("pprof", false, "also serve /debug/pprof on -metrics-addr")
		logSpec     = flag.String("log-level", "", "log level (debug|info|warn|error), optionally per component: 'warn,federate=debug'")
		quiet       = flag.Bool("q", false, "suppress progress logging")
	)
	flag.Int64Var(&simCfg.Seed, "seed", simCfg.Seed, "simulation seed (identical across the cluster)")
	flag.Int64Var((*int64)(&simCfg.Duration), "duration", int64(simCfg.Duration), "simulation length in epochs")
	flag.Int64Var((*int64)(&simCfg.TheftInterval), "theft-interval", int64(simCfg.TheftInterval), "steal a shelved case every N epochs (0 disables)")
	flag.Parse()

	if *zone < 0 || *zone >= *zones {
		return fmt.Errorf("-zone %d out of range for -zones %d", *zone, *zones)
	}
	s, err := sim.New(simCfg)
	if err != nil {
		return err
	}
	parts, err := s.PartitionZones(*zones)
	if err != nil {
		return err
	}

	logf := func(format string, args ...any) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "spirezone: "+format+"\n", args...)
		}
	}
	logging, err := trace.NewLogging(os.Stderr, *logSpec)
	if err != nil {
		return err
	}
	var fedLog *slog.Logger
	if *logSpec != "" {
		fedLog = logging.Component("federate")
	}

	var sub *core.Substrate
	if *ckpt != "" {
		if _, statErr := os.Stat(*ckpt); statErr == nil {
			if sub, err = core.RestoreSubstrateFromFile(*ckpt); err != nil {
				return fmt.Errorf("restore %s: %w", *ckpt, err)
			}
			logf("zone %d: resumed from checkpoint at epoch %d", *zone, sub.LastEpoch())
		}
	}
	if sub == nil {
		sub, err = core.New(core.Config{
			Readers:        parts[*zone],
			Locations:      s.Locations(),
			Inference:      inference.DefaultConfig(),
			Compression:    core.CompressionLevel(*level),
			WarmupLocation: s.EntryLocation(),
		})
		if err != nil {
			return err
		}
	}

	w, err := federate.NewWorker(federate.WorkerConfig{
		Zone:            federate.ZoneID(*zone),
		Addr:            *addr,
		Substrate:       sub,
		CheckpointPath:  *ckpt,
		CheckpointEvery: model.Epoch(*ckptEvery),
		AckWindow:       *ackWindow,
		JitterSeed:      *jitterSeed,
		Logf:            logf,
		Log:             fedLog,
	})
	if err != nil {
		return err
	}

	if *metricsAddr != "" {
		reg := telemetry.NewRegistry()
		w.Instrument(reg)
		rec := trace.NewConnRecorder(0)
		w.TraceConn(rec)
		plane := httpapi.New(nil, nil).
			EnableMetrics(reg).
			EnableClusterStatus(func() any { return w.Status() }).
			EnableHealth(w.Ready).
			EnableConnTrace(rec)
		if *pprofFlag {
			plane.EnablePprof()
		}
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return err
		}
		defer mln.Close()
		go http.Serve(mln, plane) //nolint:errcheck — dies with the process
		logf("zone %d: health plane on %s", *zone, mln.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	streams, err := s.PartitionZonesBatch(*zones)
	if err != nil {
		return err
	}
	if err := w.RunBatches(ctx, streams[*zone]); err != nil {
		return err
	}
	st := sub.Stats()
	logf("zone %d: done — %d epochs, %d readings, %d events (%d bytes)",
		*zone, st.Epochs, st.Readings, st.Events, st.EventBytes)
	return nil
}
