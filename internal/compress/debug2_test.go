package compress

import (
	"os"
	"strconv"
	"testing"

	"spire/internal/event"
	"spire/internal/model"
)

// TestDebugDivergence replays seeds and, for a chosen object, prints the
// level-1, level-2, and decompressed events side by side. Run with -v.
func TestDebugDivergence(t *testing.T) {
	if !testing.Verbose() {
		t.Skip("debug helper")
	}
	seed := int64(0)
	if s := os.Getenv("DBG_SEED"); s != "" {
		v, _ := strconv.ParseInt(s, 10, 64)
		seed = v
	}
	const obj = model.Tag(0) // 0 = report first diverging object

	w := newGenWorld(seed)
	l1c := NewLevel1(levelOfT)
	l2c := NewLevel2(levelOfT)
	d := NewDecompressor()
	type rec struct {
		epoch model.Epoch
		src   string
		ev    event.Event
	}
	var log []rec
	var l1all, decall []event.Event
	add := func(now model.Epoch, src string, evs []event.Event) {
		for _, e := range evs {
			log = append(log, rec{now, src, e})
		}
	}
	const epochs = 120
	for now := model.Epoch(1); now <= epochs; now++ {
		res, retire := w.step(now)
		e1 := l1c.Compress(res)
		e2 := l2c.Compress(res)
		dec, err := d.Step(e2)
		if err != nil {
			t.Fatal(err)
		}
		add(now, "L1 ", e1)
		add(now, "L2 ", e2)
		add(now, "DEC", dec)
		l1all = append(l1all, e1...)
		decall = append(decall, dec...)
		for _, g := range retire {
			r1 := l1c.Retire(g, now)
			r2 := l2c.Retire(g, now)
			dec, err := d.Step(r2)
			if err != nil {
				t.Fatal(err)
			}
			add(now, "L1r", r1)
			add(now, "L2r", r2)
			add(now, "DECr", dec)
			l1all = append(l1all, r1...)
			decall = append(decall, dec...)
		}
	}
	// Find first diverging object by location substream.
	perObj := func(evs []event.Event) map[model.Tag][]event.Event {
		m := make(map[model.Tag][]event.Event)
		for _, e := range evs {
			if !e.Kind.Containment() {
				m[e.Object] = append(m[e.Object], e)
			}
		}
		return m
	}
	target := obj
	if target == 0 {
		gm, wm := perObj(decall), perObj(l1all)
		for _, g := range []model.Tag{100, 101, 200, 201, 202, 203, 300, 301, 302, 303, 304, 305, 306, 307} {
			gs, ws := gm[g], wm[g]
			same := len(gs) == len(ws)
			if same {
				for i := range ws {
					if gs[i] != ws[i] {
						same = false
						break
					}
				}
			}
			if !same {
				target = g
				break
			}
		}
	}
	if target == 0 {
		t.Log("no divergence at this seed")
		return
	}
	t.Logf("diverging object: %d", target)
	for _, r := range log {
		parent, _, _ := d.objs.Get(r.ev.Object).Container()
		if r.ev.Object == target || r.ev.Container == target || (r.ev.Kind.Containment() && parent == target) {
			t.Logf("e%03d %s %v", r.epoch, r.src, r.ev)
		}
	}
}
