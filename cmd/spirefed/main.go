// Command spirefed is the federation coordinator of a distributed SPIRE
// deployment: it accepts one connection per zone worker (cmd/spirezone),
// aligns their per-epoch batches on an epoch barrier, merges them into a
// single consistent warehouse-wide stream via zone-priority
// reconciliation, and acks each merged epoch back to the workers.
//
// The merged stream goes to -o in the binary event wire format (readable
// by cmd/spiredecompress and cmd/spirequery) and, with -serve, into an
// in-memory query index served over HTTP (the cmd/spirequery API):
// object history, containment, location occupancy, and missing reports —
// warehouse-wide, while the zones only ever saw their own readers.
//
// A zone that stalls the barrier longer than -straggler-timeout fails
// the run with an error naming the zone. Workers may crash, reconnect,
// and resume from checkpoints freely within that budget; the ack
// protocol guarantees the merged stream neither loses nor duplicates
// epochs across such restarts.
//
//	spirefed -zones 2 -listen 127.0.0.1:7412 -o merged.bin -serve :8080
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"spire/internal/cli"
	"spire/internal/event"
	"spire/internal/federate"
	"spire/internal/model"
	"spire/internal/query"
	"spire/internal/telemetry"
	"spire/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "spirefed:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		zones     = flag.Int("zones", 2, "number of zone workers to coordinate")
		listen    = flag.String("listen", "127.0.0.1:7412", "address to accept zone workers on")
		out       = flag.String("o", "", "write the merged stream to this file (binary event wire format)")
		serve     = flag.String("serve", "", "serve the query API for the merged stream on this address")
		straggler = flag.Duration("straggler-timeout", 30*time.Second, "max barrier stall before failing and naming the lagging zone")
		warnFrac  = flag.Float64("straggler-warn", 0.5, "fraction of -straggler-timeout after which a stalled barrier logs a near-miss naming the lagging zone")
		quiet     = flag.Bool("q", false, "suppress progress logging")
	)
	srv := cli.RegisterServe(flag.CommandLine)
	flag.Parse()
	logging, err := srv.Logging(*quiet)
	if err != nil {
		return err
	}
	logMain := logging.Component("spirefed")

	var sink struct {
		mu     sync.Mutex // serializes Feed with query API reads
		store  *query.Store
		w      *event.Writer
		file   *os.File
		events int64
		epochs int64
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		sink.file = f
		sink.w = event.NewWriter(f)
	}
	if *serve != "" {
		sink.store = query.NewStore()
	}

	coord, err := federate.NewCoordinator(federate.CoordinatorConfig{
		Zones:                 *zones,
		StragglerTimeout:      *straggler,
		StragglerWarnFraction: *warnFrac,
		Log:                   logging.Component("federate"),
		Sink: func(epoch model.Epoch, events []event.Event) error {
			sink.mu.Lock()
			defer sink.mu.Unlock()
			sink.epochs++
			sink.events += int64(len(events))
			if sink.w != nil {
				for _, e := range events {
					if err := sink.w.Write(e); err != nil {
						return err
					}
				}
			}
			if sink.store != nil {
				if err := sink.store.Feed(events...); err != nil {
					return fmt.Errorf("query index: %w", err)
				}
			}
			return nil
		},
	})
	if err != nil {
		return err
	}

	if addr := srv.Addr(); addr != "" {
		reg := telemetry.NewRegistry()
		coord.Instrument(reg)
		rec := trace.NewConnRecorder(0)
		coord.TraceConn(rec)
		if err := cli.Listen(addr, cli.Plane{
			Metrics: reg,
			Pprof:   srv.Pprof,
			Cluster: func() any { return coord.Status() },
			Ready:   coord.Ready,
			Conn:    rec,
		}, logMain); err != nil {
			return err
		}
	}
	// The query API holds sink.mu around every request, stats included.
	if err := cli.Listen(*serve, cli.Plane{
		Store: sink.store,
		Lock:  &sink.mu,
		Stats: func() any {
			return map[string]any{
				"zones":         *zones,
				"merged_epochs": sink.epochs,
				"merged_events": sink.events,
			}
		},
	}, logMain); err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "spirefed: coordinating %d zones on %s\n", *zones, ln.Addr())
	}

	ctx, end := cli.Start(nil)
	defer end()
	if err := coord.Serve(ctx, ln); err != nil {
		return err
	}

	if sink.w != nil {
		if err := sink.w.Flush(); err != nil {
			return err
		}
		if err := sink.file.Close(); err != nil {
			return err
		}
		logMain.Info("wrote merged stream", "path", *out, "events", sink.w.Count(), "bytes", sink.w.Bytes())
	}
	logMain.Info("cluster run complete", "epochs", sink.epochs, "events", sink.events, "zones", *zones)
	// With -serve, keep answering queries until interrupted.
	if *serve != "" {
		logMain.Info("query API stays up; interrupt to exit")
		<-ctx.Done()
	}
	return nil
}
