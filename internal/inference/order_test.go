package inference

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"spire/internal/epc"
	"spire/internal/graph"
	"spire/internal/model"
)

// TestOrderUnderChurn drives twin graphs through seeded churn: tags
// arriving above, inside and below the existing tag range, removals and
// returns, singleton joins, whole-location unions, and rebuilds after
// splits and mid-sweep pruning. Every epoch the graph's invariants —
// tag-ascending members and the rank order included — must hold, and
// Infer's rows, written at rank and never sorted, must be strictly
// tag-ascending and equal the reference sweep's, in both modes, with one
// Inferencer reusing its scratch across epochs (cache=true) and with a
// fresh Inferencer every epoch (cache=false).
func TestOrderUnderChurn(t *testing.T) {
	for _, cache := range []bool{true, false} {
		t.Run(fmt.Sprintf("cache=%v", cache), func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			gA, gB := graph.New(), graph.New()
			infA, infB := newInf(t, baseConfig()), newInf(t, baseConfig())
			readers := make([]*model.Reader, 4)
			for i := range readers {
				readers[i] = &model.Reader{ID: model.ReaderID(i + 1), Location: model.LocationID(i), Period: 1}
			}
			home := map[model.Tag]int{} // live tags and the reader that sees them
			var live, gone []model.Tag  // live in arrival order
			var next [model.NumLevels]uint32
			arrive := func() model.Tag {
				lvl := model.Level(rng.Intn(model.NumLevels))
				if len(gone) > 0 && rng.Intn(4) == 0 {
					tg := gone[len(gone)-1]
					gone = gone[:len(gone)-1]
					return tg
				}
				if rng.Intn(3) > 0 {
					next[lvl]++ // sequenced: the end of its level band
					return epc.MustEncode(epc.Identity{Level: lvl, Company: 1, Serial: 1000 + next[lvl]})
				}
				for {
					tg := epc.MustEncode(epc.Identity{Level: lvl, Company: 1, Serial: uint32(rng.Intn(1000))})
					if _, live := home[tg]; !live && !slices.Contains(gone, tg) {
						return tg
					}
				}
			}
			for e := model.Epoch(1); e <= 150; e++ {
				for k := rng.Intn(8); k > 0; k-- {
					tg := arrive()
					home[tg] = rng.Intn(len(readers))
					live = append(live, tg)
				}
				for k := rng.Intn(4); k > 0 && len(live) > 0; k-- {
					i := rng.Intn(len(live))
					tg := live[i]
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
					delete(home, tg)
					gone = append(gone, tg)
					gA.RemoveNode(tg)
					gB.RemoveNode(tg)
				}
				sets := make([][]model.Tag, len(readers))
				for _, tg := range live {
					r := home[tg]
					if rng.Intn(20) == 0 {
						r = rng.Intn(len(readers))
						home[tg] = r
					}
					if e%10 == 0 && r == 1 {
						r = 0 // a whole location joins another: large unions
					}
					if rng.Intn(5) > 0 {
						sets[r] = append(sets[r], tg)
					}
				}
				for i, r := range readers {
					mustUpdate(t, gA, r, e, sets[i]...)
					mustUpdate(t, gB, r, e, sets[i]...)
				}
				mode := Partial
				if e%3 == 0 {
					mode = Complete
				}
				label := fmt.Sprintf("epoch %d (%v)", e, mode)
				gA.Components(e)
				if err := gA.CheckInvariants(e); err != nil {
					t.Fatalf("%s: before: %v", label, err)
				}
				if !cache {
					infA = newInf(t, baseConfig())
				}
				resA := infA.Infer(gA, e, mode)
				rows := resA.Rows()
				for i := 1; i < len(rows); i++ {
					if rows[i-1].Tag >= rows[i].Tag {
						t.Fatalf("%s: rows not tag-ascending at %d", label, i)
					}
				}
				compareResults(t, label, resA, infB.InferReference(gB, e, mode))
				if err := gA.CheckInvariants(e); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
		})
	}
}
