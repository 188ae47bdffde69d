package inference

import (
	"fmt"
	"slices"
	"testing"

	"spire/internal/epc"
	"spire/internal/graph"
	"spire/internal/model"
	"spire/internal/trace"
)

// The component-at-a-time Infer must be indistinguishable from the global
// layer-interleaved reference sweep: identical Results and identical
// graph side effects (edge pruning) with the settled-slab cache on or
// off, under both modes, on a stream with real churn (staggered scans,
// missed reads, objects moving between shelves).

// churnScenario is a deterministic multi-shelf workload generator. Shelf
// s is scanned in epoch e when (e+s)%3 == 0; a scanned shelf misses some
// tags; every 16th epoch one case group rotates to the next shelf.
type churnScenario struct {
	readers []*model.Reader
	groups  [][]model.Tag // tags currently on shelf s
}

func newChurnScenario(t testing.TB, shelves, casesPerShelf, itemsPerCase int) *churnScenario {
	t.Helper()
	seq, err := epc.NewSequencer(3)
	if err != nil {
		t.Fatal(err)
	}
	sc := &churnScenario{}
	for s := 0; s < shelves; s++ {
		sc.readers = append(sc.readers, &model.Reader{
			ID: model.ReaderID(s + 1), Location: model.LocationID(100 + s), Period: 1,
		})
		var grp []model.Tag
		p, _ := seq.Next(model.LevelPallet)
		grp = append(grp, p)
		for c := 0; c < casesPerShelf; c++ {
			ct, _ := seq.Next(model.LevelCase)
			grp = append(grp, ct)
			for i := 0; i < itemsPerCase; i++ {
				it, _ := seq.Next(model.LevelItem)
				grp = append(grp, it)
			}
		}
		sc.groups = append(sc.groups, grp)
	}
	return sc
}

// step advances the scenario by one epoch and applies the epoch's reader
// sets to every graph in gs (keeping them in lockstep).
func (sc *churnScenario) step(t testing.TB, e model.Epoch, gs ...*graph.Graph) {
	t.Helper()
	if e%16 == 0 {
		// Rotate the last case (and its items) of each shelf to the next
		// shelf: color changes, edge churn, component splits and merges.
		moved := make([][]model.Tag, len(sc.groups))
		for s, grp := range sc.groups {
			// The moved block is the shelf's last case plus its items: walk
			// back to the last LevelCase tag.
			cut := -1
			for i := len(grp) - 1; i >= 1; i-- {
				if l, _ := epc.LevelOf(grp[i]); l == model.LevelCase {
					cut = i
					break
				}
			}
			if cut > 0 {
				moved[(s+1)%len(sc.groups)] = grp[cut:]
				sc.groups[s] = grp[:cut]
			}
		}
		for s, m := range moved {
			sc.groups[s] = append(sc.groups[s], m...)
		}
	}
	for s, r := range sc.readers {
		if (int(e)+s)%3 != 0 {
			continue // shelf not scanned this epoch
		}
		var read []model.Tag
		for i, tag := range sc.groups[s] {
			if (i*31+int(e))%9 == 0 {
				continue // missed reading
			}
			read = append(read, tag)
		}
		for _, g := range gs {
			if err := g.Update(r, read, e); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func compareResults(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Now != want.Now || got.Partial != want.Partial {
		t.Fatalf("%s: header mismatch: got (%d,%v) want (%d,%v)",
			label, got.Now, got.Partial, want.Now, want.Partial)
	}
	if !slices.Equal(got.Rows(), want.Rows()) {
		t.Fatalf("%s: verdict rows diverge: %d vs %d rows", label, len(got.Rows()), len(want.Rows()))
	}
}

func baseConfig() Config {
	cfg := DefaultConfig()
	cfg.PruneThreshold = 0.25 // exercise mid-sweep pruning
	return cfg
}

// TestInferMatchesReference is the differential pin: Infer vs the
// retained global reference, in lockstep on twin graphs, with the cache
// on and off and a complete pass every 4th epoch.
func TestInferMatchesReference(t *testing.T) {
	for _, disableCache := range []bool{false, true} {
		t.Run(fmt.Sprintf("cache=%v", !disableCache), func(t *testing.T) {
			cfg := baseConfig()
			cfg.DisableCache = disableCache

			gA := newGraph(t)
			gB := newGraph(t)
			infA, err := New(cfg, gA.Config().HistorySize)
			if err != nil {
				t.Fatal(err)
			}
			infB, err := New(baseConfig(), gB.Config().HistorySize)
			if err != nil {
				t.Fatal(err)
			}
			sc := newChurnScenario(t, 6, 2, 3)
			for e := model.Epoch(1); e <= 64; e++ {
				sc.step(t, e, gA, gB)
				mode := Partial
				if e%4 == 0 {
					mode = Complete
				}
				resA := infA.Infer(gA, e, mode)
				resB := infB.InferReference(gB, e, mode)
				label := fmt.Sprintf("epoch %d (%v)", e, mode)
				compareResults(t, label, resA, resB)
				if gA.EdgeCount() != gB.EdgeCount() || gA.Len() != gB.Len() {
					t.Fatalf("%s: graphs diverged: %d/%d edges, %d/%d nodes",
						label, gA.EdgeCount(), gB.EdgeCount(), gA.Len(), gB.Len())
				}
				if err := gA.CheckInvariants(e); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if mode == Complete {
					st := infA.LastStats()
					if st.NodesInferred+st.NodesCached != gA.Len() {
						t.Fatalf("%s: stats cover %d+%d of %d nodes",
							label, st.NodesInferred, st.NodesCached, gA.Len())
					}
					if len(resA.Rows()) != gA.Len() {
						t.Fatalf("%s: %d verdicts for %d nodes", label, len(resA.Rows()), gA.Len())
					}
				}
			}
		})
	}
}

// TestInferCachedSteadyState pins the incremental win: once the stream
// goes quiet every component settles, passes touch zero nodes, and the
// cached verdicts still match the reference sweep byte for byte.
func TestInferCachedSteadyState(t *testing.T) {
	cfg := baseConfig()
	gA := newGraph(t)
	gB := newGraph(t)
	infA, err := New(cfg, gA.Config().HistorySize)
	if err != nil {
		t.Fatal(err)
	}
	infB, err := New(baseConfig(), gB.Config().HistorySize)
	if err != nil {
		t.Fatal(err)
	}
	sc := newChurnScenario(t, 4, 2, 3)
	var e model.Epoch
	for e = 1; e <= 24; e++ {
		sc.step(t, e, gA, gB)
		compareResults(t, fmt.Sprintf("warm epoch %d", e),
			infA.Infer(gA, e, Complete), infB.InferReference(gB, e, Complete))
	}
	// Quiet stream: no updates at all. After the fading belief of the
	// last readings drops below the unknown mass (age 2 at θ=1.25), every
	// component is settled and cached.
	for ; e <= 40; e++ {
		resA := infA.Infer(gA, e, Complete)
		compareResults(t, fmt.Sprintf("quiet epoch %d", e), resA, infB.InferReference(gB, e, Complete))
		if e >= 30 {
			st := infA.LastStats()
			if st.DirtyComponents != 0 || st.NodesInferred != 0 {
				t.Fatalf("quiet epoch %d: %d dirty components, %d nodes inferred; want all cached",
					e, st.DirtyComponents, st.NodesInferred)
			}
			if st.NodesCached != gA.Len() || st.CleanComponents == 0 {
				t.Fatalf("quiet epoch %d: %d of %d nodes cached over %d clean components",
					e, st.NodesCached, gA.Len(), st.CleanComponents)
			}
		}
	}
}

// TestInferTracedTagForcesRecompute pins the provenance exception: a
// traced tag inside a settled, cache-eligible component forces its
// component to be re-inferred so the per-epoch records keep firing.
func TestInferTracedTagForcesRecompute(t *testing.T) {
	cfg := baseConfig()
	g := newGraph(t)
	inf, err := New(cfg, g.Config().HistorySize)
	if err != nil {
		t.Fatal(err)
	}
	sc := newChurnScenario(t, 2, 1, 2)
	var e model.Epoch
	for e = 1; e <= 12; e++ {
		sc.step(t, e, g)
		inf.Infer(g, e, Complete)
	}
	for ; e <= 20; e++ { // quiet: let everything settle into the cache
		inf.Infer(g, e, Complete)
	}
	if st := inf.LastStats(); st.DirtyComponents != 0 {
		t.Fatalf("precondition failed: %d dirty components before tracing", st.DirtyComponents)
	}

	traced := sc.groups[0][len(sc.groups[0])-1] // one settled item
	rec := trace.New(trace.Config{Tags: []model.Tag{traced}})
	inf.SetTracer(rec)
	res := inf.Infer(g, e, Complete)
	st := inf.LastStats()
	if st.DirtyComponents != 1 {
		t.Fatalf("traced component not re-inferred: %d dirty components", st.DirtyComponents)
	}
	if v, ok := res.Lookup(traced); !ok || v.Location != model.LocationUnknown {
		t.Fatalf("traced tag verdict changed under re-inference: %v (present=%v)", v.Location, ok)
	}
	recs := rec.TagRecords(traced)
	if len(recs) == 0 {
		t.Fatal("no provenance records for traced tag in cached component")
	}
	found := false
	for _, r := range recs {
		if r.Epoch == e && r.Mech == trace.MechNodeInference {
			found = true
		}
	}
	if !found {
		t.Fatalf("no node-inference record at epoch %d for traced tag", e)
	}

	// Detaching the recorder re-enables the cache for that component.
	inf.SetTracer(nil)
	inf.Infer(g, e+1, Complete)
	if st := inf.LastStats(); st.DirtyComponents != 0 {
		t.Fatalf("component still dirty after tracer detached: %d", st.DirtyComponents)
	}
}

// TestInferAllocsSerial pins the pass-stamped node scratch (no per-pass
// distance or color map) and the pooled sweep state: a warm pass
// allocates nothing, with the cache off
// (full re-sweep) and in cached steady state.
func TestInferAllocsSerial(t *testing.T) {
	run := func(name string, disableCache bool, advance bool) {
		cfg := DefaultConfig()
		cfg.DisableCache = disableCache
		g, now := buildWarehouseGraph(t, 8, 2, 5)
		inf, err := New(cfg, g.Config().HistorySize)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ { // warm scratch, settle the cache
			if advance {
				now++
			}
			inf.Infer(g, now, Complete)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if advance {
				now++
			}
			inf.Infer(g, now, Complete)
		})
		if allocs != 0 {
			t.Errorf("%s: Infer allocates %.1f allocs/op, want 0", name, allocs)
		}
	}
	run("full-sweep", true, false)
	run("cached-steady-state", false, true)
}
