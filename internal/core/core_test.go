package core

import (
	"fmt"
	"slices"
	"testing"

	"spire/internal/compress"
	"spire/internal/epc"
	"spire/internal/event"
	"spire/internal/inference"
	"spire/internal/model"
	"spire/internal/query"
	"spire/internal/sim"
)

func fastSim(t *testing.T, mutate func(*sim.Config)) *sim.Simulator {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Duration = 400
	cfg.PalletInterval = 40
	cfg.ItemsPerCase = 3
	cfg.ShelfTime = 60
	cfg.ShelfPeriod = 10
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newSubstrate(t *testing.T, s *sim.Simulator, level CompressionLevel) *Substrate {
	t.Helper()
	sub, err := New(Config{
		Readers:     s.Readers(),
		Locations:   s.Locations(),
		Inference:   inference.DefaultConfig(),
		Compression: level,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

func TestNewValidation(t *testing.T) {
	s := fastSim(t, nil)
	if _, err := New(Config{Locations: s.Locations()}); err == nil {
		t.Error("missing readers must fail")
	}
	if _, err := New(Config{Readers: s.Readers()}); err == nil {
		t.Error("missing locations must fail")
	}
	if _, err := New(Config{Readers: s.Readers(), Locations: s.Locations(),
		Inference: inference.DefaultConfig(), Compression: 7}); err == nil {
		t.Error("unknown compression level must fail")
	}
	dup := append([]model.Reader{}, s.Readers()...)
	dup = append(dup, s.Readers()[0])
	if _, err := New(Config{Readers: dup, Locations: s.Locations(),
		Inference: inference.DefaultConfig()}); err == nil {
		t.Error("duplicate reader IDs must fail")
	}
	bad := Config{Readers: s.Readers(), Locations: s.Locations()}
	bad.Inference.Beta = 7
	if _, err := New(bad); err == nil {
		t.Error("invalid inference config must fail")
	}
}

// TestProcessEpochGuards checks the per-epoch input guards: a nil
// batch, an epoch that does not advance and a reading from an unknown
// reader are each rejected.
func TestProcessEpochGuards(t *testing.T) {
	s := fastSim(t, nil)
	sub := newSubstrate(t, s, Level1)
	if _, err := sub.ProcessBatch(nil); err == nil {
		t.Error("nil batch must fail")
	}
	if _, err := sub.ProcessBatch(model.NewBatch(5)); err != nil {
		t.Fatal(err)
	}
	if _, err := sub.ProcessBatch(model.NewBatch(5)); err == nil {
		t.Error("non-advancing epoch must fail")
	}
	unk := model.NewBatch(6)
	unk.AppendGroup(999, []model.Tag{1})
	if _, err := sub.ProcessBatch(unk); err == nil {
		t.Error("reading from unknown reader must fail")
	}
}

// TestProcessBatchErrorParity pins ProcessBatch's error contract:
// nil-input, non-monotonic-epoch, unknown-reader and invalid-batch errors,
// with known readers' groups already applied when the unknown-reader
// error surfaces and the failed epoch's timestamp consumed.
func TestProcessBatchErrorParity(t *testing.T) {
	s := fastSim(t, nil)
	sub := newSubstrate(t, s, Level1)

	if _, err := sub.ProcessBatch(nil); err == nil {
		t.Fatal("nil batch must error")
	}

	known := s.Readers()[0]
	item := epc.MustEncode(epc.Identity{Level: model.LevelItem, Company: 9, Serial: 1})
	b := model.NewBatch(1)
	b.AppendGroup(known.ID, []model.Tag{item})
	b.AppendGroup(known.ID+1000, []model.Tag{item}) // not deployed
	_, err := sub.ProcessBatch(b)
	want := fmt.Sprintf("core: reading from unknown reader %d", known.ID+1000)
	if err == nil || err.Error() != want {
		t.Fatalf("unknown reader: got %v, want %q", err, want)
	}
	if n := sub.Graph().Node(item); n == nil {
		t.Fatal("known reader's group must be applied before the unknown-reader error")
	}

	// The failed epoch still consumed its timestamp, and the error is the
	// same on every retry.
	_, err = sub.ProcessBatch(model.NewBatch(1))
	if err == nil {
		t.Fatal("non-monotonic epoch must error")
	}
	if _, again := sub.ProcessBatch(model.NewBatch(1)); again == nil || again.Error() != err.Error() {
		t.Fatalf("repeated non-monotonic error %v, first %v", again, err)
	}

	bad := model.NewBatch(2)
	bad.BeginReader(5)
	bad.Groups[0].End = 7 // offsets no longer cover the tag column
	if _, err := sub.ProcessBatch(bad); err == nil {
		t.Fatal("invalid batch must error")
	}
}

// TestEndToEndWellFormed runs the full pipeline over a simulated trace
// and checks the global properties: a well-formed closed output stream,
// retirement of exited objects, and populated stats. (Losslessness is
// checked separately by TestLosslessObservations.)
func TestEndToEndWellFormed(t *testing.T) {
	s := fastSim(t, nil)
	sub := newSubstrate(t, s, Level1)
	var all []event.Event
	for !s.Done() {
		o, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		out, err := sub.ProcessBatch(o)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, out.Events...)
		for _, g := range out.Retired {
			if sub.Graph().Node(g) != nil {
				t.Fatalf("retired object %d still in graph", g)
			}
		}
	}
	all = append(all, sub.Close(s.Now()+1)...)
	if err := event.CheckWellFormed(all, true); err != nil {
		t.Fatalf("output stream: %v", err)
	}
	st := sub.Stats()
	if st.Epochs == 0 || st.Readings == 0 || st.Events == 0 {
		t.Errorf("stats not populated: %+v", st)
	}
	if st.EventBytes >= st.RawBytes {
		t.Errorf("compressed output (%d B) should undercut raw input (%d B)", st.EventBytes, st.RawBytes)
	}
	if st.UpdateTime <= 0 || st.InferenceTime <= 0 {
		t.Errorf("timing stats not populated: %+v", st)
	}
}

// TestEndToEndLevel2Decompression checks, on a complete-inference
// deployment (every reader at period 1), that the decompressed level-2
// stream matches the level-1 stream object for object.
func TestEndToEndLevel2Decompression(t *testing.T) {
	mkSim := func() *sim.Simulator {
		return fastSim(t, func(c *sim.Config) { c.ShelfPeriod = 1 })
	}
	s1, s2 := mkSim(), mkSim()
	subL1 := newSubstrate(t, s1, Level1)
	subL2 := newSubstrate(t, s2, Level2)
	dec := compress.NewDecompressor()

	var l1all, l2all, decall []event.Event
	for !s1.Done() {
		o1, err := s1.Step()
		if err != nil {
			t.Fatal(err)
		}
		o2, err := s2.Step()
		if err != nil {
			t.Fatal(err)
		}
		out1, err := subL1.ProcessBatch(o1)
		if err != nil {
			t.Fatal(err)
		}
		out2, err := subL2.ProcessBatch(o2)
		if err != nil {
			t.Fatal(err)
		}
		l1all = append(l1all, out1.Events...)
		l2all = append(l2all, out2.Events...)
		d, err := dec.Step(out2.Events)
		if err != nil {
			t.Fatal(err)
		}
		decall = append(decall, d...)
	}
	end := s1.Now() + 1
	c1 := subL1.Close(end)
	c2 := subL2.Close(end)
	l1all = append(l1all, c1...)
	l2all = append(l2all, c2...)
	d, err := dec.Step(c2)
	if err != nil {
		t.Fatal(err)
	}
	decall = append(decall, d...)
	decall = append(decall, dec.Close(end)...)

	if err := event.CheckWellFormed(l1all, true); err != nil {
		t.Fatalf("level-1 stream: %v", err)
	}
	if err := event.CheckWellFormed(l2all, true); err != nil {
		t.Fatalf("level-2 stream: %v", err)
	}
	if err := event.CheckWellFormed(decall, true); err != nil {
		t.Fatalf("decompressed stream: %v", err)
	}
	if event.StreamSize(l2all) >= event.StreamSize(l1all) {
		t.Errorf("level-2 (%d B) should be smaller than level-1 (%d B)",
			event.StreamSize(l2all), event.StreamSize(l1all))
	}

	// Containment streams must agree exactly.
	_, gc := event.SplitStreams(decall)
	_, wc := event.SplitStreams(l1all)
	if len(gc) != len(wc) {
		t.Fatalf("containment events: %d vs %d", len(gc), len(wc))
	}
	for i := range wc {
		if gc[i] != wc[i] {
			t.Fatalf("containment event %d: %v vs %v", i, gc[i], wc[i])
		}
	}
	// Location streams must agree per object.
	perObj := func(evs []event.Event) map[model.Tag][]event.Event {
		m := make(map[model.Tag][]event.Event)
		for _, e := range evs {
			if !e.Kind.Containment() {
				m[e.Object] = append(m[e.Object], e)
			}
		}
		return m
	}
	gm, wm := perObj(decall), perObj(l1all)
	for obj, ws := range wm {
		gs := gm[obj]
		if len(gs) != len(ws) {
			t.Errorf("object %d: %d vs %d location events\ngot:  %v\nwant: %v",
				obj, len(gs), len(ws), gs, ws)
			continue
		}
		for i := range ws {
			if gs[i] != ws[i] {
				t.Errorf("object %d event %d: got %v, want %v", obj, i, gs[i], ws[i])
			}
		}
	}
}

// TestLosslessObservations verifies the paper's losslessness property:
// every observed object is truthfully reflected in the compressed output
// — replaying the output stream, each object reads back at the location
// where it was observed, at every epoch it was observed.
func TestLosslessObservations(t *testing.T) {
	s := fastSim(t, nil)
	sub := newSubstrate(t, s, Level1)
	store := query.NewStore()
	type obs struct {
		at  model.Epoch
		obj model.Tag
		loc model.LocationID
	}
	var observed []obs
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
			t.Fatal(err)
		}
		retired := make(map[model.Tag]bool, len(out.Retired))
		for _, g := range out.Retired {
			retired[g] = true
		}
		for g, seen := range out.Result.Observed {
			// Objects retired this epoch close their interval at the
			// observation epoch itself (a half-open zero-length stay).
			if seen && !retired[g] {
				observed = append(observed, obs{at: o.Time, obj: g, loc: out.Result.Locations[g]})
			}
		}
	}
	if err := store.Feed(sub.Close(s.Now() + 1)...); err != nil {
		t.Fatal(err)
	}
	if len(observed) == 0 {
		t.Fatal("no observations recorded")
	}
	wrong := 0
	for _, o := range observed {
		got, ok := store.LocationAt(o.obj, o.at)
		if !ok || got != o.loc {
			wrong++
			if wrong <= 3 {
				t.Errorf("object %d observed at %v in epoch %d, stream says %v,%v",
					o.obj, o.loc, o.at, got, ok)
			}
		}
	}
	if wrong > 0 {
		t.Fatalf("%d of %d observations not reflected in the output", wrong, len(observed))
	}
}

// TestStationaryWorldQuiesces checks the compression premise end to end:
// once the warehouse state stops changing, the output stream goes silent.
func TestStationaryWorldQuiesces(t *testing.T) {
	s := fastSim(t, func(c *sim.Config) {
		c.Duration = 200
		c.PalletInterval = 1000 // one pallet, injected at epoch 1
		c.ShelfTime = 10000     // cases never leave the shelf
		c.ShelfPeriod = 5
		c.ReadRate = 1
	})
	sub := newSubstrate(t, s, Level1)
	quietAfter := model.Epoch(120) // lifecycle settles well before this
	for !s.Done() {
		o, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		out, err := sub.ProcessBatch(o)
		if err != nil {
			t.Fatal(err)
		}
		if s.Now() > quietAfter && len(out.Events) > 0 {
			t.Fatalf("epoch %d: stationary world still emits %v", s.Now(), out.Events)
		}
	}
}

// TestDroppedItemReportedUncontained replays the running example's item 6:
// an item falls off its case on the receiving belt; once the case is
// observed elsewhere, SPIRE must end the reported containment.
func TestDroppedItemReportedUncontained(t *testing.T) {
	s := fastSim(t, func(c *sim.Config) {
		c.Duration = 600
		c.ItemDropRate = 0.6
		c.ReadRate = 1
		c.ShelfPeriod = 5
	})
	sub := newSubstrate(t, s, Level1)
	ended := make(map[model.Tag]bool)
	for !s.Done() {
		o, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		out, err := sub.ProcessBatch(o)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range out.Events {
			if e.Kind == event.EndContainment {
				ended[e.Object] = true
			}
		}
	}
	drops := s.Drops()
	if len(drops) == 0 {
		t.Fatal("trace produced no drops")
	}
	missed := 0
	for _, d := range drops {
		if !ended[d.Item] {
			missed++
		}
	}
	if missed > 0 {
		t.Errorf("%d of %d dropped items never had their containment ended", missed, len(drops))
	}
}

// TestWronglyRetiredObjectResurrects reproduces the hazard of exit-side
// retirement: an object whose stale containment makes it look like it
// left inside a departing container (because it was missed at the very
// epoch it split off) is retired and tombstoned — but its next reading by
// a non-exit reader must bring it back, and its true containment must
// re-establish.
func TestWronglyRetiredObjectResurrects(t *testing.T) {
	s := fastSim(t, func(c *sim.Config) {
		c.Duration = 60
		c.PalletInterval = 1000 // single pallet
		c.ShelfPeriod = 10
		c.ReadRate = 1 // deterministic reads; we fabricate the miss below
	})
	sub, err := New(Config{
		Readers:       s.Readers(),
		Locations:     s.Locations(),
		Inference:     inference.DefaultConfig(),
		KeepRawResult: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Find the epoch at which the first case hits the receiving belt and
	// drop its reading there for that one epoch, while the emptied pallet
	// is being read at the exit.
	var victim model.Tag
	for !s.Done() {
		o, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		beltID := s.Readers()[1].ID // receiving belt
		if victim == model.NoTag {
			for i, gr := range o.Groups {
				if gr.Reader != beltID {
					continue
				}
				if j := slices.IndexFunc(o.GroupTags(i), func(g model.Tag) bool { return levelOfTag(g) == model.LevelCase }); j >= 0 {
					victim = o.GroupTags(i)[j]
					// Miss the case in this epoch's belt reading.
					o.Tags = slices.Delete(o.Tags, int(gr.Start)+j, int(gr.Start)+j+1)
					o.Groups[i].End--
					for k := i + 1; k < len(o.Groups); k++ {
						o.Groups[k].Start--
						o.Groups[k].End--
					}
				}
			}
		}
		if _, err := sub.ProcessBatch(o); err != nil {
			t.Fatal(err)
		}
		if victim != model.NoTag && s.Now() >= 20 {
			break
		}
	}
	if victim == model.NoTag {
		t.Fatal("no case reached the belt")
	}
	// After the missed epoch the case was read again on the belt: it must
	// be live in the graph with its items' containment re-confirmed.
	n := sub.Graph().Node(victim)
	if n == nil {
		t.Fatal("victim case must be resurrected in the graph")
	}
	if n.NumChildren() == 0 {
		t.Error("resurrected case must regain its item edges")
	}
	if _, dead := sub.tombstones[victim]; dead {
		t.Error("victim must not remain tombstoned")
	}
}

func levelOfTag(g model.Tag) model.Level {
	l, _ := epc.LevelOf(g)
	return l
}

func TestPartialInferenceEpochsRun(t *testing.T) {
	s := fastSim(t, func(c *sim.Config) { c.ShelfPeriod = 7 })
	sub := newSubstrate(t, s, Level1)
	modes := map[inference.Mode]int{}
	for !s.Done() {
		o, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		out, err := sub.ProcessBatch(o)
		if err != nil {
			t.Fatal(err)
		}
		modes[out.Mode]++
	}
	if modes[inference.Partial] == 0 || modes[inference.Complete] == 0 {
		t.Errorf("expected both modes with a period-7 shelf reader: %v", modes)
	}
	if sub.Schedule().CompleteEvery() != 7 {
		t.Errorf("schedule M = %d, want 7", sub.Schedule().CompleteEvery())
	}
}
