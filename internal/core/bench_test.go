package core

import (
	"testing"

	"spire/internal/epc"
	"spire/internal/inference"
	"spire/internal/model"
)

// BenchmarkExitSet walks the exit set of a resolved 16 800-row result:
// 200 pallets of 4 cases of 20 items, one pallet in ten read at the exit
// with its contents, so the walk collects 10 % of the rows through Table
// I's lists.
func BenchmarkExitSet(b *testing.B) {
	const exit, shelf = model.LocationID(3), model.LocationID(1)
	res := &inference.Result{
		Locations: map[model.Tag]model.LocationID{},
		Parents:   map[model.Tag]model.Tag{},
		Observed:  map[model.Tag]bool{},
	}
	serial := uint32(0)
	add := func(l model.Level, loc model.LocationID, parent model.Tag) model.Tag {
		serial++
		g := epc.MustEncode(epc.Identity{Level: l, Company: 7, Serial: serial})
		res.Locations[g], res.Parents[g], res.Observed[g] = loc, parent, true
		return g
	}
	for p := 0; p < 200; p++ {
		loc := shelf
		if p%10 == 0 {
			loc = exit
		}
		pal := add(model.LevelPallet, loc, model.NoTag)
		for c := 0; c < 4; c++ {
			cs := add(model.LevelCase, loc, pal)
			for i := 0; i < 20; i++ {
				add(model.LevelItem, loc, cs)
			}
		}
	}
	inference.ResolveConflicts(res, levelOf, nil)
	s := &Substrate{exits: map[model.LocationID]bool{exit: true}}
	b.ReportMetric(float64(len(s.exitSet(res))), "retired")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.exitSet(res)
	}
}
