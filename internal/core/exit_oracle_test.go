package core

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"spire/internal/epc"
	"spire/internal/inference"
	"spire/internal/model"
	"spire/internal/sim"
)

// exitSetSorted is the exit walk exitSet replaced: the contained rows
// sorted by container tag, then row, and each walked container's
// contents found by binary search among them. It is the oracle
// TestExitSetMatchesSortedWalk holds exitSet to.
func exitSetSorted(exits map[model.LocationID]bool, res *inference.Result) []model.Tag {
	rows := res.Rows()
	var walk []int32
	for i, v := range rows {
		if v.Observed && exits[v.Location] {
			walk = append(walk, int32(i))
		}
	}
	if len(walk) == 0 {
		return nil
	}
	seen := make([]bool, len(rows))
	for _, i := range walk {
		seen[i] = true
	}
	var kids []int32
	for i, v := range rows {
		if v.HasParent && v.Parent != model.NoTag {
			kids = append(kids, int32(i))
		}
	}
	slices.SortFunc(kids, func(a, b int32) int { return cmp.Or(cmp.Compare(rows[a].Parent, rows[b].Parent), cmp.Compare(a, b)) })
	for k := 0; k < len(walk); k++ {
		g := rows[walk[k]].Tag
		j, _ := slices.BinarySearchFunc(kids, g, func(c int32, t model.Tag) int { return cmp.Compare(rows[c].Parent, t) })
		for ; j < len(kids) && rows[kids[j]].Parent == g; j++ {
			if c := kids[j]; !seen[c] {
				seen[c] = true
				walk = append(walk, c)
			}
		}
	}
	out := make([]model.Tag, len(walk))
	for k, i := range walk {
		out[k] = rows[i].Tag
	}
	slices.SortFunc(out, func(a, b model.Tag) int {
		if la, lb := levelOf(a), levelOf(b); la != lb {
			return cmp.Compare(lb, la)
		}
		return cmp.Compare(a, b)
	})
	return out
}

// detachedSkips counts the children that Table I listed under a walked
// container but rule II has since detached: the ones exitSet must skip.
func detachedSkips(res *inference.Result, retired []model.Tag) int {
	rows, n := res.Rows(), 0
	for _, g := range retired {
		p, _ := slices.BinarySearchFunc(rows, g, func(v inference.Verdict, t model.Tag) int { return cmp.Compare(v.Tag, t) })
		res.Contents(p, func(c int) {
			if rows[c].Parent != g {
				n++
			}
		})
	}
	return n
}

// TestExitSetMatchesSortedWalk holds exitSet to the sorted walk on a
// hand-built rule-II case, on random sparse results, and on every epoch
// of a simulated run with an exit door.
func TestExitSetMatchesSortedWalk(t *testing.T) {
	const exit, shelf = model.LocationID(3), model.LocationID(1)
	tag := func(l model.Level, serial uint32) model.Tag {
		return epc.MustEncode(epc.Identity{Level: l, Company: 7, Serial: serial})
	}

	t.Run("rule II", func(t *testing.T) {
		// The pallet is read at the exit; its case is inferred there by
		// rule I, and two items read on a shelf leave the case by rule II.
		pal, cs := tag(model.LevelPallet, 1), tag(model.LevelCase, 2)
		i1, i2, i3 := tag(model.LevelItem, 3), tag(model.LevelItem, 4), tag(model.LevelItem, 5)
		res := &inference.Result{
			Now:       9,
			Locations: map[model.Tag]model.LocationID{pal: exit, cs: shelf, i1: shelf, i2: shelf, i3: model.LocationUnknown},
			Parents:   map[model.Tag]model.Tag{cs: pal, i1: cs, i2: cs, i3: cs},
			Observed:  map[model.Tag]bool{pal: true, i1: true, i2: true},
		}
		inference.ResolveConflicts(res, levelOf, nil)
		s := &Substrate{exits: map[model.LocationID]bool{exit: true}}
		got := s.exitSet(res)
		if want := []model.Tag{pal, cs, i3}; !slices.Equal(got, want) || !slices.Equal(exitSetSorted(s.exits, res), want) {
			t.Fatalf("exitSet = %v, oracle %v, want %v", got, exitSetSorted(s.exits, res), want)
		}
		if n := detachedSkips(res, got); n != 2 {
			t.Fatalf("%d detached children listed under the case, want 2", n)
		}
	})

	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(51))
		s := &Substrate{exits: map[model.LocationID]bool{exit: true}}
		var pool []model.Tag
		for i := uint32(1); i <= 36; i++ {
			pool = append(pool, tag(model.Level(i%3), i))
		}
		skips, retired := 0, 0
		for n := 0; n < 2000; n++ {
			res := &inference.Result{
				Now:       model.Epoch(n + 1),
				Locations: map[model.Tag]model.LocationID{},
				Parents:   map[model.Tag]model.Tag{},
				Observed:  map[model.Tag]bool{},
			}
			for _, g := range pool {
				if rng.Intn(4) == 0 {
					continue // no row: a withheld or unknown object
				}
				res.Locations[g] = model.LocationID(rng.Intn(4))
				res.Observed[g] = rng.Intn(2) == 0
				if rng.Intn(5) > 0 {
					res.Parents[g] = pool[rng.Intn(len(pool))]
				}
			}
			inference.ResolveConflicts(res, levelOf, nil)
			got, want := s.exitSet(res), exitSetSorted(s.exits, res)
			if !slices.Equal(got, want) {
				t.Fatalf("result %d: exitSet = %v, oracle %v", n, got, want)
			}
			skips += detachedSkips(res, got)
			retired += len(got)
		}
		if skips == 0 || retired == 0 {
			t.Fatalf("the walk retired %d objects and skipped %d detached children: the pin exercised nothing", retired, skips)
		}
	})

	t.Run("sim", func(t *testing.T) {
		sm := fastSim(t, func(c *sim.Config) { c.ReadRate = 0.8 })
		sub := newSubstrate(t, sm, Level1)
		retired := 0
		for !sm.Done() {
			o, err := sm.Step()
			if err != nil {
				t.Fatal(err)
			}
			out, err := sub.ProcessBatch(o)
			if err != nil {
				t.Fatal(err)
			}
			if want := exitSetSorted(sub.exits, out.Result); !slices.Equal(out.Retired, want) {
				t.Fatalf("epoch %d: retired %v, oracle %v", sm.Now(), out.Retired, want)
			}
			retired += len(out.Retired)
		}
		if retired == 0 {
			t.Fatal("the simulated run retired nothing")
		}
	})
}
