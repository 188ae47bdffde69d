// Command spirequery answers tracking queries over a SPIRE output stream.
//
// The stream is loaded either from a binary event file written by
// cmd/spire -o, or from a durable event log directory written with
// internal/eventlog. Level-2 streams are decompressed on the fly with
// -level2, the paper's on-demand decompression pattern.
//
//	spire -simulate -duration 1200 -o events.bin
//	spirequery -events events.bin -summary
//	spirequery -events events.bin -obj 7696581394433 -at 500
//	spirequery -events events.bin -path 7696581394433
//	spirequery -events events.bin -missing-at 900
//	spirequery -events events.bin -loc 2 -at 500
//
// -watch replays the stream through the complex-event engine of
// internal/cep and prints each match as it completes. Each run of events
// with one Emitted epoch (start and Missing messages fire at Vs, end
// messages at Ve) is one epoch of the live output and reaches the engine
// in one call, so the replay prints the matches a live spire -subscribe
// run logs, in its order. Windows still open when the stream ends are
// reported as pending, not matched.
//
//	spirequery -events events.bin -watch 'SEQ(missing(), NOT start()) WITHIN 60'
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"

	"spire/internal/cep"
	"spire/internal/cli"
	"spire/internal/compress"
	"spire/internal/epc"
	"spire/internal/event"
	"spire/internal/eventlog"
	"spire/internal/model"
	"spire/internal/query"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "spirequery:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		eventsFile = flag.String("events", "", "binary event stream file")
		logDir     = flag.String("log", "", "event log directory (alternative to -events)")
		level2     = flag.Bool("level2", false, "input is a level-2 stream: decompress while loading")
		summary    = flag.Bool("summary", false, "print stream summary")
		obj        = flag.Uint64("obj", 0, "object tag for -at/-path/-history queries")
		at         = flag.Int64("at", -1, "query timestamp")
		path       = flag.Uint64("path", 0, "print the location path of this tag")
		history    = flag.Uint64("history", 0, "print the stay history of this tag")
		missingAt  = flag.Int64("missing-at", -1, "list objects missing at this time")
		loc        = flag.Int64("loc", -1, "location id for -at occupancy queries")
		serve      = flag.String("serve", "", "serve the loaded stream over HTTP on this address (e.g. :8080)")
	)
	var watch cli.MultiFlag
	flag.Var(&watch, "watch", "replay the stream through this complex-event pattern and print matches (repeatable)")
	flag.Parse()

	var engine *cep.Engine
	var clock model.Epoch
	matches := 0
	if len(watch) > 0 {
		engine = cep.NewEngine(cep.Config{})
		for _, p := range watch {
			id, err := engine.SubscribeFunc(p, func(m cep.Match) {
				matches++
				fmt.Printf("match sub=%d object=%s start=%d at=%d\n", m.Sub, name(m.Object), m.Start, m.At)
			})
			if err != nil {
				return fmt.Errorf("-watch %q: %w", p, err)
			}
			fmt.Fprintf(os.Stderr, "spirequery: watching [%d] %s\n", id, p)
		}
	}

	store := query.NewStore()
	var dec *compress.Decompressor
	if *level2 {
		dec = compress.NewDecompressor()
	}
	// A stream is stored in emission order, so a run of events with one
	// Emitted epoch is one epoch's output: the batch the decompressor
	// steps, as the live pipeline produced it.
	var batch []event.Event
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		evs := batch
		batch = nil
		clock = max(clock, evs[0].Emitted())
		if dec != nil {
			var err error
			if evs, err = dec.Step(evs); err != nil {
				return err
			}
		}
		if engine != nil {
			engine.Epoch(clock, evs)
		}
		return store.Feed(evs...)
	}
	feed := func(e event.Event) error {
		if len(batch) > 0 && e.Emitted() != batch[0].Emitted() {
			if err := flush(); err != nil {
				return err
			}
		}
		batch = append(batch, e)
		return nil
	}

	switch {
	case *eventsFile != "":
		f, err := os.Open(*eventsFile)
		if err != nil {
			return err
		}
		defer f.Close()
		r := event.NewReader(f)
		for {
			e, err := r.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			if err := feed(e); err != nil {
				return err
			}
		}
	case *logDir != "":
		if err := eventlog.Replay(*logDir, feed); err != nil {
			return err
		}
	default:
		return fmt.Errorf("one of -events or -log is required")
	}

	if err := flush(); err != nil {
		return err
	}

	if engine != nil {
		// The last epoch's call resolved the windows that closed by then;
		// anything still open is pending, not matched.
		pendingRuns := 0
		for _, st := range engine.Subscriptions() {
			pendingRuns += st.Runs
		}
		fmt.Fprintf(os.Stderr, "spirequery: watch replay done: %d matches, %d windows still open at epoch %d\n",
			matches, pendingRuns, clock)
	}

	if *serve != "" {
		ctx, end := cli.Start(nil)
		defer end()
		if err := cli.Listen(*serve, cli.Plane{Store: store}, slog.Default()); err != nil {
			return err
		}
		<-ctx.Done()
		return nil
	}

	ran := engine != nil
	if *summary {
		ran = true
		fmt.Printf("events: %d, objects: %d\n", store.Events(), len(store.Objects()))
	}
	if *obj != 0 && *at >= 0 {
		ran = true
		g := model.Tag(*obj)
		t := model.Epoch(*at)
		if l, ok := store.LocationAt(g, t); ok {
			fmt.Printf("%s @%d: location L%d\n", name(g), t, l)
		} else {
			fmt.Printf("%s @%d: location unknown\n", name(g), t)
		}
		if c, ok := store.ContainerAt(g, t); ok {
			fmt.Printf("%s @%d: inside %s (top: %s)\n", name(g), t, name(c), name(store.TopContainerAt(g, t)))
		} else {
			fmt.Printf("%s @%d: not contained\n", name(g), t)
		}
	}
	if *path != 0 {
		ran = true
		fmt.Printf("path of %s:", name(model.Tag(*path)))
		for _, l := range store.Path(model.Tag(*path)) {
			fmt.Printf(" L%d", l)
		}
		fmt.Println()
	}
	if *history != 0 {
		ran = true
		for _, st := range store.History(model.Tag(*history)) {
			ve := fmt.Sprintf("%d", st.Ve)
			if st.Ve == model.InfiniteEpoch {
				ve = "open"
			}
			fmt.Printf("[%6d .. %6s)  L%d\n", st.Vs, ve, st.Location)
		}
	}
	if *missingAt >= 0 {
		ran = true
		miss := store.MissingAt(model.Epoch(*missingAt))
		fmt.Printf("missing at %d: %d objects\n", *missingAt, len(miss))
		for _, g := range miss {
			fmt.Printf("  %s\n", name(g))
		}
	}
	if *loc >= 0 && *at >= 0 {
		ran = true
		objs := store.ObjectsAt(model.LocationID(*loc), model.Epoch(*at))
		fmt.Printf("at L%d @%d: %d objects\n", *loc, *at, len(objs))
		for _, g := range objs {
			fmt.Printf("  %s\n", name(g))
		}
	}
	if !ran {
		return fmt.Errorf("no query requested (try -summary)")
	}
	return nil
}

func name(g model.Tag) string {
	id, err := epc.Decode(g)
	if err != nil {
		return fmt.Sprintf("tag-%d", g)
	}
	return fmt.Sprintf("%s-%d.%d(%d)", id.Level, id.ItemRef, id.Serial, g)
}
