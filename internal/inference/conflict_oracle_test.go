package inference

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"spire/internal/epc"
	"spire/internal/graph"
	"spire/internal/model"
	"spire/internal/trace"
)

// resolveConflictsSorted is Table I with the comparison-sorted grouping
// that ResolveConflicts replaced: every chosen (parent, child) pair keyed
// by the parent's level, sorted level descending, then parent tag, then
// child row, and each parent's row found by binary search. It is the
// oracle FuzzConflictGroupingMatchesSort holds ResolveConflicts to: same
// rows, same decision count, same trace records.
func resolveConflictsSorted(res *Result, levelOf func(model.Tag) model.Level, rec *trace.Recorder) (decisions int64) {
	rows := res.Rows()
	// A sparse-form result is resolved in row form from here on.
	res.Locations, res.Parents, res.Observed = nil, nil, nil

	// Group chosen children per parent: highest level first, ties in tag
	// order for determinism; rows are tag-sorted, so each group's
	// children come out in tag order too.
	var pairs []childPair
	for i, v := range rows {
		if v.HasParent && v.Parent != model.NoTag {
			pairs = append(pairs, childPair{level: levelOf(v.Parent), parent: v.Parent, child: int32(i)})
		}
	}
	slices.SortFunc(pairs, func(a, b childPair) int {
		if a.level != b.level {
			return cmp.Compare(b.level, a.level)
		}
		return cmp.Or(cmp.Compare(a.parent, b.parent), cmp.Compare(a.child, b.child))
	})

	// A location is "settled" when it was directly observed or inherited
	// from a settled container higher up the pass; the children's poll may
	// not override a settled location, otherwise a rule-I override at the
	// pallet level would be undone when the case is later processed as a
	// parent itself.
	var settled []bool
	for _, v := range rows {
		settled = append(settled, v.Observed)
	}

	for len(pairs) > 0 {
		p := pairs[0].parent
		n := 1
		for n < len(pairs) && pairs[n].parent == p {
			n++
		}
		kids := pairs[:n]
		pairs = pairs[n:]
		pi, ok := findRow(rows, p)
		if !ok {
			// The parent itself was withheld (partial inference). Leave
			// the children as they are: no parent location to enforce.
			continue
		}
		prow := &rows[pi]
		ploc := prow.Location
		if !settled[pi] {
			// Rules II/III preamble: the parent's location is inferred, so
			// poll the children before enforcing anything. A strict
			// majority of the children voting for one known location
			// overrides the parent's estimate.
			// Children with "unknown" verdicts carry no location evidence
			// (they are typically the parent's own missed readings), so
			// the majority is taken over the children that actually vote
			// a known location, each vote a unit of mass.
			var votes []propagation
			total := 0.0
			for _, k := range kids {
				if loc := rows[k.child].Location; loc.Known() {
					votes = addMass(votes, loc, 1)
					total++
				}
			}
			// Ties need no break: two locations tied at the top count
			// m make total ≥ 2m, so neither is a strict majority.
			best := propagation{loc: model.LocationNone}
			for _, v := range votes {
				if v.p > best.p {
					best = v
				}
			}
			if best.p*2 > total {
				if ploc != best.loc {
					decisions++
					if rec.Traces(p) {
						rec.Record(trace.Record{
							Epoch: res.Now, Tag: p, Mech: trace.MechMajorityPoll,
							Loc: best.loc, Aux: int32(best.p),
						})
					}
				}
				ploc = best.loc
				prow.Location = ploc
			}
		}
		for _, k := range kids {
			c := &rows[k.child]
			cloc := c.Location
			if cloc == ploc {
				continue
			}
			decisions++
			switch {
			case c.Observed && !prow.Observed:
				// Rule II: an observed child that still disagrees ends its
				// containment — we report that the child has no container.
				c.Parent = model.NoTag
				if rec.Traces(c.Tag) {
					rec.Record(trace.Record{
						Epoch: res.Now, Tag: c.Tag, Mech: trace.MechRuleII,
						Loc: cloc, Other: p,
					})
				}
			case c.Observed && prow.Observed:
				// Both observed in different locations: the graph update
				// would have dropped the edge, so this cannot arise from a
				// single consistent epoch; keep the observations and end
				// the containment defensively.
				c.Parent = model.NoTag
				if rec.Traces(c.Tag) {
					rec.Record(trace.Record{
						Epoch: res.Now, Tag: c.Tag, Mech: trace.MechRuleII,
						Loc: cloc, Other: p, Aux: 1,
					})
				}
			default:
				// Rules I and III: containment wins, the child's inferred
				// location is overridden by the parent's.
				c.Location = ploc
				if settled[pi] {
					settled[k.child] = true
				}
				if rec.Traces(c.Tag) {
					mech := trace.MechRuleIII
					if prow.Observed {
						mech = trace.MechRuleI
					}
					rec.Record(trace.Record{
						Epoch: res.Now, Tag: c.Tag, Mech: mech,
						Loc: ploc, Other: p,
					})
				}
			}
		}
	}
	return decisions
}

// childPair is one chosen containment (rows[child] in parent), keyed for
// Table I's processing order.
type childPair struct {
	parent model.Tag
	child  int32
	level  model.Level
}

// FuzzConflictGroupingMatchesSort holds ResolveConflicts to the sorted
// oracle on two kinds of input, picked by the low bit of shape:
//
//   - row-form results of Infer over a random warehouse of one to three
//     pallets, Partial or Complete per epoch, so withheld containers and
//     rows whose container lies outside the halo occur, with mid-sweep
//     edge pruning when bit 1 is set; ResolveConflicts runs on the pass's
//     own result, the oracle on a clone taken before it;
//   - sparse-form results with random rows, containers with and without a
//     row, objects with no Parents entry, and levels beyond the packaging
//     levels.
//
// Both must leave the same rows, count the same decisions and record the
// same provenance.
func FuzzConflictGroupingMatchesSort(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(conflictGroupingCase)
}

func conflictGroupingCase(t *testing.T, seed int64, shape uint8) {
	rng := rand.New(rand.NewSource(seed))
	if shape&1 == 1 {
		a := randomSparseResult(rng, 1+int(shape>>1)%48)
		b := &Result{Now: a.Now, Locations: maps.Clone(a.Locations), Parents: maps.Clone(a.Parents), Observed: maps.Clone(a.Observed)}
		sparseLevels := func(g model.Tag) model.Level { return model.Level(g * 7 % 5) }
		checkGroupingMatchesSort(t, "sparse", a, b, sparseLevels)
		return
	}
	cfg, warm := DefaultConfig(), model.Epoch(0)
	if shape&2 != 0 {
		// Edges with 4 or more of 32 co-located epochs survive pruning:
		// build some history first.
		cfg.PruneThreshold, warm = 0.05, 12
	}
	inf := newInf(t, cfg)
	w := newFuzzWarehouse(rng, 1+int(shape>>2)%3)
	last := warm + model.Epoch(6+rng.Intn(14))
	for e := model.Epoch(1); e <= last; e++ {
		if w.step(t, rng, e); e <= warm {
			continue
		}
		mode := Partial
		if rng.Intn(3) == 0 {
			mode = Complete
		}
		res := inf.Infer(w.g, e, mode)
		checkGroupingMatchesSort(t, fmt.Sprintf("epoch %d (%v)", e, mode), res, res.Clone(), levelOf)
	}
}

// checkGroupingMatchesSort resolves got with ResolveConflicts and want
// with the oracle and compares rows, decisions and provenance.
func checkGroupingMatchesSort(t *testing.T, label string, got, want *Result, levelOf func(model.Tag) model.Level) {
	t.Helper()
	recGot, recWant := trace.New(trace.Config{All: true}), trace.New(trace.Config{All: true})
	dGot, dWant := ResolveConflicts(got, levelOf, recGot), resolveConflictsSorted(want, levelOf, recWant)
	if dGot != dWant {
		t.Fatalf("%s: %d decisions, oracle %d", label, dGot, dWant)
	}
	if !slices.Equal(got.Rows(), want.Rows()) {
		t.Fatalf("%s: resolved rows diverge from the oracle:\n got %v\nwant %v", label, got.Rows(), want.Rows())
	}
	tags := recGot.TracedTags()
	if !slices.Equal(tags, recWant.TracedTags()) {
		t.Fatalf("%s: traced tags %v, oracle %v", label, tags, recWant.TracedTags())
	}
	for _, g := range tags {
		if a, b := recGot.TagRecords(g), recWant.TagRecords(g); !slices.Equal(a, b) {
			t.Fatalf("%s: tag %d records %+v, oracle %+v", label, g, a, b)
		}
	}
}

// randomSparseResult draws n objects from tags 1..2n: random locations
// (unknown included), observed flags, and a Parents entry that is absent,
// NoTag, or any tag of the range, so some containers have no row.
func randomSparseResult(rng *rand.Rand, n int) *Result {
	res := &Result{
		Now:       model.Epoch(1 + rng.Intn(9)),
		Locations: map[model.Tag]model.LocationID{},
		Parents:   map[model.Tag]model.Tag{},
		Observed:  map[model.Tag]bool{},
	}
	for i := 0; i < n; i++ {
		g := model.Tag(1 + rng.Intn(2*n))
		res.Locations[g] = model.LocationID(rng.Intn(4))
		if rng.Intn(5) == 0 {
			res.Locations[g] = model.LocationUnknown
		}
		if rng.Intn(2) == 0 {
			res.Observed[g] = true
		}
		switch k := rng.Intn(6); {
		case k == 0:
		case k == 1:
			res.Parents[g] = model.NoTag
		default:
			res.Parents[g] = model.Tag(1 + rng.Intn(2*n))
		}
	}
	return res
}

// fuzzWarehouse is a random warehouse: pallets of cases of items, each
// pallet at a home shelf it sometimes leaves, read by shelf readers that
// scan on some epochs and miss some tags, with strays read at another
// shelf for an epoch.
type fuzzWarehouse struct {
	g       *graph.Graph
	readers []*model.Reader
	groups  [][]model.Tag // one pallet with its cases and items
	home    []int
}

func newFuzzWarehouse(rng *rand.Rand, pallets int) *fuzzWarehouse {
	w := &fuzzWarehouse{g: graph.New()}
	for s := 0; s < 2+rng.Intn(3); s++ {
		w.readers = append(w.readers, &model.Reader{ID: model.ReaderID(s + 1), Location: model.LocationID(s), Period: 1})
	}
	serial := uint32(0)
	tag := func(l model.Level) model.Tag {
		serial++
		return epc.MustEncode(epc.Identity{Level: l, Company: 1, Serial: serial})
	}
	for p := 0; p < pallets; p++ {
		grp := []model.Tag{tag(model.LevelPallet)}
		for c := rng.Intn(4); c > 0; c-- {
			grp = append(grp, tag(model.LevelCase))
			for i := rng.Intn(6); i > 0; i-- {
				grp = append(grp, tag(model.LevelItem))
			}
		}
		w.groups = append(w.groups, grp)
		w.home = append(w.home, rng.Intn(len(w.readers)))
	}
	return w
}

func (w *fuzzWarehouse) step(t *testing.T, rng *rand.Rand, e model.Epoch) {
	t.Helper()
	sets := make([][]model.Tag, len(w.readers))
	for p, grp := range w.groups {
		if rng.Intn(8) == 0 {
			w.home[p] = rng.Intn(len(w.readers))
		}
		for _, g := range grp {
			r := w.home[p]
			if rng.Intn(12) == 0 {
				r = rng.Intn(len(w.readers))
			}
			if rng.Intn(10) < 7 {
				sets[r] = append(sets[r], g)
			}
		}
	}
	for s, r := range w.readers {
		if rng.Intn(5) < 3 {
			mustUpdate(t, w.g, r, e, sets[s]...)
		}
	}
}
