package cep

import (
	"fmt"
	"strings"

	"spire/internal/epc"
	"spire/internal/event"
	"spire/internal/model"
)

// gen deals deterministic pseudo-choices off a byte string — the shared
// randomness source of the fuzz target (bytes come from the fuzzer) and
// the property tests (bytes come from a seeded PRNG). Exhausted input
// yields zeros, so every prefix decodes to something.
type gen struct {
	data []byte
	i    int
}

func (g *gen) byte() byte {
	if g.i >= len(g.data) {
		return 0
	}
	b := g.data[g.i]
	g.i++
	return b
}

// n returns a choice in [0, max).
func (g *gen) n(max int) int {
	if max <= 0 {
		return 0
	}
	return int(g.byte()) % max
}

// chance is true with probability num/256.
func (g *gen) chance(num int) bool { return int(g.byte()) < num }

// genLocs is the location vocabulary of generated streams and patterns.
const genLocs = 5

// genTags is the object vocabulary: EPC-encoded tags across both
// companies and all three levels, so level()/company() atoms and the
// containment pool are meaningful.
func genTags() (objs, containers []model.Tag) {
	for _, company := range []uint32{7, 9} {
		for _, lvl := range []model.Level{model.LevelItem, model.LevelCase, model.LevelPallet} {
			for serial := uint32(1); serial <= 2; serial++ {
				tag := epc.MustEncode(epc.Identity{Level: lvl, Company: company, ItemRef: 1, Serial: serial})
				objs = append(objs, tag)
				if lvl == model.LevelPallet {
					containers = append(containers, tag)
				}
			}
		}
	}
	return objs, containers
}

// genPattern builds a random — but always valid — pattern source string.
// Validity is by construction: refs only target earlier positive steps, a
// trailing NOT forces a WITHIN, adjacent NOTs are avoided.
func genPattern(g *gen) string {
	_, containers := genTags()
	nsteps := 1 + g.n(4)
	var steps []string
	var positives []int // 1-based indices of positive steps, for @refs
	prevNeg := false
	for si := 1; si <= nsteps; si++ {
		neg := si > 1 && !prevNeg && g.chance(72)
		prevNeg = neg
		var atoms []string
		switch g.n(6) {
		case 0:
			atoms = append(atoms, "start("+genLocArg(g, positives)+")")
		case 1:
			atoms = append(atoms, "end("+genLocArg(g, positives)+")")
		case 2:
			atoms = append(atoms, "contain("+genContArg(g, positives, containers)+")")
		case 3:
			atoms = append(atoms, "uncontain("+genContArg(g, positives, containers)+")")
		case 4:
			atoms = append(atoms, "missing()")
		case 5:
			atoms = append(atoms, "any()")
		}
		if g.chance(48) {
			objs, _ := genTags()
			atoms = append(atoms, fmt.Sprintf("tag(%d)", objs[g.n(len(objs))]))
		}
		if g.chance(48) {
			atoms = append(atoms, "level("+[]string{"item", "case", "pallet"}[g.n(3)]+")")
		}
		if g.chance(48) {
			atoms = append(atoms, fmt.Sprintf("company(%d)", []int{7, 9}[g.n(2)]))
		}
		s := strings.Join(atoms, " & ")
		if neg {
			s = "NOT " + s
		} else {
			positives = append(positives, si)
		}
		steps = append(steps, s)
	}
	src := "SEQ(" + strings.Join(steps, ", ") + ")"
	if prevNeg || g.chance(160) {
		src += fmt.Sprintf(" WITHIN %d", 1+g.n(12))
	}
	return src
}

func genLocArg(g *gen, positives []int) string {
	switch g.n(4) {
	case 0:
		return ""
	case 1:
		lo := g.n(genLocs)
		if g.chance(96) {
			hi := lo + g.n(genLocs-lo)
			neg := ""
			if g.chance(64) {
				neg = "!"
			}
			return fmt.Sprintf("%s%d..%d", neg, lo, hi)
		}
		return fmt.Sprintf("%d", lo)
	default:
		if len(positives) == 0 {
			return fmt.Sprintf("%d", g.n(genLocs))
		}
		neg := ""
		if g.chance(64) {
			neg = "!"
		}
		return fmt.Sprintf("%s@%d", neg, positives[g.n(len(positives))])
	}
}

func genContArg(g *gen, positives []int, containers []model.Tag) string {
	switch g.n(3) {
	case 0:
		return ""
	case 1:
		return fmt.Sprintf("%d", containers[g.n(len(containers))])
	default:
		if len(positives) == 0 {
			return ""
		}
		return fmt.Sprintf("@%d", positives[g.n(len(positives))])
	}
}

// genStream builds a random timed event stream grouped into epochs, with
// generator-level fault injection: duplicated events and small epoch gaps
// mimic what the fault injector does to the upstream readings.
func genStream(g *gen) []TimedEvent {
	objs, containers := genTags()
	count := 4 + g.n(48)
	now := model.Epoch(1 + g.n(4))
	var out []TimedEvent
	var prev *event.Event
	for i := 0; i < count; i++ {
		now += model.Epoch(g.n(3)) // 0 = same epoch, else a gap
		var ev event.Event
		if prev != nil && g.chance(24) {
			ev = *prev // duplicate delivery
		} else {
			obj := objs[g.n(len(objs))]
			loc := model.LocationID(g.n(genLocs))
			switch event.Kind(1 + g.n(5)) {
			case event.StartLocation:
				ev = event.NewStartLocation(obj, loc, now)
			case event.EndLocation:
				ev = event.NewEndLocation(obj, loc, now, now)
			case event.StartContainment:
				ev = event.NewStartContainment(obj, containers[g.n(len(containers))], now)
			case event.EndContainment:
				ev = event.NewEndContainment(obj, containers[g.n(len(containers))], now, now)
			default:
				ev = event.NewMissing(obj, loc, now)
			}
		}
		prev = &ev
		out = append(out, TimedEvent{At: now, Ev: ev})
	}
	return out
}

// feedEngine groups a timed stream into Epoch calls and returns the final
// clock value fed (including the optional flush advance).
func feedEngine(e *Engine, stream []TimedEvent, flush model.Epoch) model.Epoch {
	var batch []event.Event
	var now model.Epoch
	for i, te := range stream {
		if i > 0 && te.At != now {
			e.Epoch(now, batch)
			batch = batch[:0]
		}
		now = te.At
		batch = append(batch, te.Ev)
	}
	if len(batch) > 0 || len(stream) > 0 {
		e.Epoch(now, batch)
	}
	if flush > now {
		e.Epoch(flush, nil)
		now = flush
	}
	return now
}

// feedEngineDense feeds the stream like feedEngine, but reports every
// epoch from 0 through end, the empty ones included.
func feedEngineDense(e *Engine, stream []TimedEvent, end model.Epoch) {
	i := 0
	for now := model.Epoch(0); now <= end; now++ {
		var batch []event.Event
		for ; i < len(stream) && stream[i].At == now; i++ {
			batch = append(batch, stream[i].Ev)
		}
		e.Epoch(now, batch)
	}
}
