package query_test

import (
	"testing"

	"spire/internal/compress"
	"spire/internal/core"
	"spire/internal/epc"
	"spire/internal/event"
	"spire/internal/eventlog"
	"spire/internal/inference"
	"spire/internal/model"
	"spire/internal/query"
	"spire/internal/sim"
)

// TestPipelineIntoStore drives the full substrate and checks that the
// query layer's answers are consistent with the live inference results.
func TestPipelineIntoStore(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Duration = 400
	cfg.PalletInterval = 60
	cfg.ItemsPerCase = 3
	cfg.ShelfTime = 80
	cfg.ShelfPeriod = 10
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := core.New(core.Config{
		Readers:   s.Readers(),
		Locations: s.Locations(),
		Inference: inference.DefaultConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	store := query.NewStore()
	type check struct {
		at  model.Epoch
		obj model.Tag
		loc model.LocationID
	}
	var checks []check
	for !s.Done() {
		o, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		out, err := sub.ProcessBatch(o)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Feed(out.Events...); err != nil {
			t.Fatalf("epoch %d: %v", o.Time, err)
		}
		// Sample a few reported states to verify later.
		if o.Time%37 == 0 {
			for g, loc := range out.Result.Locations {
				if loc.Known() {
					checks = append(checks, check{at: o.Time, obj: g, loc: loc})
					break
				}
			}
		}
	}
	if err := store.Feed(sub.Close(s.Now() + 1)...); err != nil {
		t.Fatal(err)
	}
	if len(checks) == 0 {
		t.Fatal("no checks sampled")
	}
	for _, c := range checks {
		got, ok := store.LocationAt(c.obj, c.at)
		if !ok || got != c.loc {
			t.Errorf("LocationAt(%d, %d) = %v,%v; live pipeline reported %v", c.obj, c.at, got, ok, c.loc)
		}
	}
	// Every item that reached a shelf must have a path through belt and
	// shelf locations; spot-check one.
	for _, g := range store.Objects() {
		if lvl, _ := epc.LevelOf(g); lvl != model.LevelItem {
			continue
		}
		p := store.Path(g)
		if len(p) >= 3 {
			if p[0] != 0 {
				t.Errorf("item %d path %v must start at the entry door", g, p)
			}
			break
		}
	}
}

// TestDurableReplayMatchesDirect persists the output stream through the
// event log and checks that a store rebuilt via Replay answers exactly
// like one fed directly — the crash-recovery contract.
func TestDurableReplayMatchesDirect(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Duration = 300
	cfg.PalletInterval = 70
	cfg.ItemsPerCase = 3
	cfg.ShelfTime = 60
	cfg.ShelfPeriod = 10
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := core.New(core.Config{
		Readers:   s.Readers(),
		Locations: s.Locations(),
		Inference: inference.DefaultConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	l, err := eventlog.Open(dir, eventlog.Options{MaxSegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	direct := query.NewStore()
	for !s.Done() {
		o, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		out, err := sub.ProcessBatch(o)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append(out.Events...); err != nil {
			t.Fatal(err)
		}
		if err := direct.Feed(out.Events...); err != nil {
			t.Fatal(err)
		}
	}
	closing := sub.Close(s.Now() + 1)
	if err := l.Append(closing...); err != nil {
		t.Fatal(err)
	}
	if err := direct.Feed(closing...); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	replayed := query.NewStore()
	if err := eventlog.Replay(dir, func(e event.Event) error {
		return replayed.Feed(e)
	}); err != nil {
		t.Fatal(err)
	}
	if replayed.Events() != direct.Events() {
		t.Fatalf("replayed %d events, direct %d", replayed.Events(), direct.Events())
	}
	objs := direct.Objects()
	if len(objs) != len(replayed.Objects()) {
		t.Fatalf("object counts differ")
	}
	for _, g := range objs {
		dh, rh := direct.History(g), replayed.History(g)
		if len(dh) != len(rh) {
			t.Fatalf("object %d: history lengths differ", g)
		}
		for i := range dh {
			if dh[i] != rh[i] {
				t.Errorf("object %d stay %d: %+v vs %+v", g, i, dh[i], rh[i])
			}
		}
	}
}

// TestLevel2StreamThroughDecompressorIntoStore checks the paper's
// query-processor front-end composition: level-2 on the wire, on-demand
// decompression, then queries.
func TestLevel2StreamThroughDecompressorIntoStore(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Duration = 300
	cfg.PalletInterval = 70
	cfg.ItemsPerCase = 3
	cfg.ShelfTime = 60
	cfg.ShelfPeriod = 1 // complete inference everywhere: exact equivalence
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := core.New(core.Config{
		Readers:     s.Readers(),
		Locations:   s.Locations(),
		Inference:   inference.DefaultConfig(),
		Compression: core.Level2,
	})
	if err != nil {
		t.Fatal(err)
	}
	dec := compress.NewDecompressor()
	store := query.NewStore()
	for !s.Done() {
		o, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		out, err := sub.ProcessBatch(o)
		if err != nil {
			t.Fatal(err)
		}
		d, err := dec.Step(out.Events)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Feed(d...); err != nil {
			t.Fatal(err)
		}
	}
	end := s.Now() + 1
	d, err := dec.Step(sub.Close(end))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Feed(d...); err != nil {
		t.Fatal(err)
	}
	if err := store.Feed(dec.Close(end)...); err != nil {
		t.Fatal(err)
	}
	// Contained items must be queriable at their containers' locations
	// even though the wire stream suppressed their location events.
	found := false
	for _, g := range store.Objects() {
		if lvl, _ := epc.LevelOf(g); lvl != model.LevelItem {
			continue
		}
		for _, c := range store.Containments(g) {
			mid := c.Vs
			if c.Ve != model.InfiniteEpoch {
				mid = (c.Vs + c.Ve) / 2
			}
			cloc, okc := store.LocationAt(c.Container, mid)
			iloc, oki := store.LocationAt(g, mid)
			if okc && oki {
				found = true
				if cloc != iloc {
					t.Errorf("item %d at %v but container %d at %v (t=%d)", g, iloc, c.Container, cloc, mid)
				}
			}
		}
	}
	if !found {
		t.Fatal("no contained item verified")
	}
}
