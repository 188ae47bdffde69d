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
	"flag"
	"fmt"
	"os"

	"spire/internal/cli"
	"spire/internal/core"
	"spire/internal/federate"
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
		zone       = flag.Int("zone", -1, "this worker's zone ID (0-based)")
		zones      = flag.Int("zones", 2, "total zones in the cluster")
		addr       = flag.String("addr", "127.0.0.1:7412", "coordinator address")
		level      = flag.Int("level", 1, "compression level (1 or 2)")
		ckpt       = flag.String("checkpoint", "", "checkpoint file; written on ack, resumed from when present")
		ckptEvery  = flag.Int64("checkpoint-every", 50, "epochs between checkpoint snapshots")
		ackWindow  = flag.Int("ack-window", 64, "max epochs in flight past the coordinator's acks")
		jitterSeed = flag.Int64("jitter-seed", 0, "seed for reconnect-backoff jitter (0 derives one from the clock and zone)")
		quiet      = flag.Bool("q", false, "suppress progress logging")
	)
	cli.RegisterSim(flag.CommandLine, &simCfg)
	srv := cli.RegisterServe(flag.CommandLine)
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

	logging, err := srv.Logging(*quiet)
	if err != nil {
		return err
	}
	logMain := logging.Component("spirezone").With("zone", *zone)

	var sub *core.Substrate
	if *ckpt != "" {
		if _, statErr := os.Stat(*ckpt); statErr == nil {
			if sub, err = core.RestoreSubstrateFromFile(*ckpt); err != nil {
				return fmt.Errorf("restore %s: %w", *ckpt, err)
			}
			logMain.Info("resumed from checkpoint", "epoch", sub.LastEpoch())
		}
	}
	if sub == nil {
		sub, err = core.New(core.Config{
			Readers:     parts[*zone],
			Locations:   s.Locations(),
			Inference:   inference.DefaultConfig(),
			Compression: core.CompressionLevel(*level),
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
		Log:             logging.Component("federate"),
	})
	if err != nil {
		return err
	}

	if addr := srv.Addr(); addr != "" {
		reg := telemetry.NewRegistry()
		w.Instrument(reg)
		rec := trace.NewConnRecorder(0)
		w.TraceConn(rec)
		if err := cli.Listen(addr, cli.Plane{
			Metrics: reg,
			Pprof:   srv.Pprof,
			Cluster: func() any { return w.Status() },
			Ready:   w.Ready,
			Conn:    rec,
		}, logMain); err != nil {
			return err
		}
	}

	ctx, end := cli.Start(nil)
	defer end()

	streams, err := s.PartitionZonesBatch(*zones)
	if err != nil {
		return err
	}
	if err := w.RunBatches(ctx, streams[*zone]); err != nil {
		return err
	}
	st := sub.Stats()
	logMain.Info("zone done", "epochs", st.Epochs, "readings", st.Readings,
		"events", st.Events, "event_bytes", st.EventBytes)
	return nil
}
