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
	"bufio"
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"spire/internal/event"
	"spire/internal/federate"
	"spire/internal/httpapi"
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
		zones       = flag.Int("zones", 2, "number of zone workers to coordinate")
		listen      = flag.String("listen", "127.0.0.1:7412", "address to accept zone workers on")
		out         = flag.String("o", "", "write the merged stream to this file (binary event wire format)")
		serve       = flag.String("serve", "", "serve the query API for the merged stream on this address")
		straggler   = flag.Duration("straggler-timeout", 30*time.Second, "max barrier stall before failing and naming the lagging zone")
		warnFrac    = flag.Float64("straggler-warn", 0.5, "fraction of -straggler-timeout after which a stalled barrier logs a near-miss naming the lagging zone")
		metricsAddr = flag.String("metrics-addr", "", "serve the cluster health plane on this address: /metrics, /v1/cluster, /healthz, /readyz, /debug/fedtrace")
		pprofFlag   = flag.Bool("pprof", false, "also serve /debug/pprof on -metrics-addr")
		logSpec     = flag.String("log-level", "", "log level (debug|info|warn|error), optionally per component: 'warn,federate=debug'")
		quiet       = flag.Bool("q", false, "suppress progress logging")
	)
	flag.Parse()

	logf := func(format string, args ...any) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "spirefed: "+format+"\n", args...)
		}
	}
	logging, err := trace.NewLogging(os.Stderr, *logSpec)
	if err != nil {
		return err
	}

	var sink struct {
		mu     sync.Mutex // serializes Feed with query API reads
		store  *query.Store
		w      *event.Writer
		file   *os.File
		buf    *bufio.Writer
		events int64
		epochs int64
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		sink.file = f
		sink.buf = bufio.NewWriter(f)
		sink.w = event.NewWriter(sink.buf)
	}
	if *serve != "" {
		sink.store = query.NewStore()
	}

	var fedLog *slog.Logger
	if *logSpec != "" {
		fedLog = logging.Component("federate")
	}
	coord, err := federate.NewCoordinator(federate.CoordinatorConfig{
		Zones:                 *zones,
		StragglerTimeout:      *straggler,
		StragglerWarnFraction: *warnFrac,
		Logf:                  logf,
		Log:                   fedLog,
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

	if *metricsAddr != "" {
		reg := telemetry.NewRegistry()
		coord.Instrument(reg)
		rec := trace.NewConnRecorder(0)
		coord.TraceConn(rec)
		plane := httpapi.New(nil, nil).
			EnableMetrics(reg).
			EnableClusterStatus(func() any { return coord.Status() }).
			EnableHealth(coord.Ready).
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
		logf("cluster health plane on %s", mln.Addr())
	}

	if *serve != "" {
		api := httpapi.New(sink.store, func() any {
			sink.mu.Lock()
			defer sink.mu.Unlock()
			return map[string]any{
				"zones":         *zones,
				"merged_epochs": sink.epochs,
				"merged_events": sink.events,
			}
		})
		locked := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sink.mu.Lock()
			defer sink.mu.Unlock()
			api.ServeHTTP(w, r)
		})
		hln, err := net.Listen("tcp", *serve)
		if err != nil {
			return err
		}
		defer hln.Close()
		go http.Serve(hln, locked) //nolint:errcheck — dies with the process
		logf("query API on %s", hln.Addr())
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	logf("coordinating %d zones on %s", *zones, ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := coord.Serve(ctx, ln); err != nil {
		return err
	}

	if sink.w != nil {
		if err := sink.buf.Flush(); err != nil {
			return err
		}
		if err := sink.file.Close(); err != nil {
			return err
		}
		logf("wrote %d events (%d bytes) to %s", sink.w.Count(), sink.w.Bytes(), *out)
	}
	logf("merged %d epochs, %d events from %d zones", sink.epochs, sink.events, *zones)
	// With -serve, keep answering queries until interrupted.
	if *serve != "" {
		logf("cluster run complete; query API stays up (interrupt to exit)")
		<-ctx.Done()
	}
	return nil
}
