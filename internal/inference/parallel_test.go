package inference

import (
	"fmt"
	"slices"
	"testing"

	"spire/internal/epc"
	"spire/internal/graph"
	"spire/internal/model"
)

// The component-at-a-time Infer must be indistinguishable from the global
// layer-interleaved reference sweep: identical Results and identical
// graph side effects (edge pruning) under both modes, on a stream with
// real churn (staggered scans, missed reads, objects moving between
// shelves).

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
				moved[(s+1)%len(sc.groups)] = slices.Clone(grp[cut:]) // the append below reuses grp's tail
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
			if err := applyGroup(g, r, read, e); err != nil {
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
// retained global reference, in lockstep on twin graphs, with a complete
// pass every 4th epoch. With cache=true one Inferencer keeps its scratch
// (fade table, pooled result, row bitmap, sweep queues) across the whole
// run, as in production; with cache=false a fresh Inferencer runs every
// epoch. Both must match the reference, so reused scratch carries no
// state from one pass into the next.
func TestInferMatchesReference(t *testing.T) {
	for _, cache := range []bool{true, false} {
		t.Run(fmt.Sprintf("cache=%v", cache), func(t *testing.T) {
			gA, gB := graph.New(), graph.New()
			infA, infB := newInf(t, baseConfig()), newInf(t, baseConfig())
			sc := newChurnScenario(t, 6, 2, 3)
			for e := model.Epoch(1); e <= 64; e++ {
				sc.step(t, e, gA, gB)
				mode := Partial
				if e%4 == 0 {
					mode = Complete
				}
				if !cache {
					infA = newInf(t, baseConfig())
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
					if st := infA.LastStats(); st.NodesInferred != gA.Len() {
						t.Fatalf("%s: stats cover %d of %d nodes", label, st.NodesInferred, gA.Len())
					}
					if len(resA.Rows()) != gA.Len() {
						t.Fatalf("%s: %d verdicts for %d nodes", label, len(resA.Rows()), gA.Len())
					}
				}
			}
		})
	}
}

// TestInferAllocsSerial pins the pass-stamped node scratch (no per-pass
// distance or color map) and the pooled sweep state: a warm complete pass
// allocates nothing, on a fixed graph and as the epoch advances.
func TestInferAllocsSerial(t *testing.T) {
	run := func(name string, advance bool) {
		g, now := buildWarehouseGraph(t, 8, 2, 5)
		inf, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ { // warm scratch
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
	run("fixed-epoch", false)
	run("advancing-epoch", true)
}
