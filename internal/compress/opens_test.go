package compress

import (
	"bytes"
	"testing"

	"spire/internal/checkpoint"
	"spire/internal/event"
	"spire/internal/inference"
	"spire/internal/model"
)

// compressor is the surface TestOpensMatchesScan drives at either level.
type compressor interface {
	Compress(*inference.Result) []event.Event
	Retire(model.Tag, model.Epoch) []event.Event
	Close(model.Epoch) []event.Event
}

// opensScan is the scan Opens replaced: one pass over every state.
func opensScan(c *Level1) (locs, conts int) {
	for _, st := range c.states {
		if st.locOpen {
			locs++
		}
		if st.parent != model.NoTag {
			conts++
		}
	}
	return locs, conts
}

// restoreLevel round-trips c's state through a snapshot section, and
// returns the restored compressor with its shared state.
func restoreLevel(t *testing.T, c *Level1, level2 bool) (compressor, *Level1) {
	t.Helper()
	var buf bytes.Buffer
	e := checkpoint.NewEncoder()
	c.EncodeState(e)
	if err := e.Flush(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := checkpoint.NewDecoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if level2 {
		c2, err := DecodeLevel2(d, levelOfT)
		if err != nil {
			t.Fatal(err)
		}
		return c2, &c2.Level1
	}
	c1, err := DecodeLevel1(d, levelOfT)
	if err != nil {
		t.Fatal(err)
	}
	return c1, c1
}

// TestOpensMatchesScan holds the running open-interval counts to a scan
// of the states after every epoch's Compress and retirements, at both
// levels, across a snapshot restore every 40 epochs, and after Close.
func TestOpensMatchesScan(t *testing.T) {
	for _, level2 := range []bool{false, true} {
		for seed := int64(0); seed < 10; seed++ {
			w := newGenWorld(seed)
			var c compressor
			var l1 *Level1
			if level2 {
				l2 := NewLevel2(levelOfT)
				c, l1 = l2, &l2.Level1
			} else {
				l1 = NewLevel1(levelOfT)
				c = l1
			}
			check := func(when string, now model.Epoch) {
				t.Helper()
				gl, gc := l1.Opens()
				wl, wc := opensScan(l1)
				if gl != wl || gc != wc {
					t.Fatalf("level2=%v seed %d epoch %d %s: Opens = %d locations, %d containments; scan %d, %d",
						level2, seed, now, when, gl, gc, wl, wc)
				}
			}
			opened := 0
			for now := model.Epoch(1); now <= 120; now++ {
				res, retire := w.step(now)
				c.Compress(res)
				for _, g := range retire {
					c.Retire(g, now)
				}
				check("after compress", now)
				locs, conts := l1.Opens()
				opened += locs + conts
				if now%40 == 0 {
					c, l1 = restoreLevel(t, l1, level2)
					check("after restore", now)
				}
			}
			c.Close(121)
			check("after close", 121)
			if opened == 0 {
				t.Fatalf("level2=%v seed %d: no interval was ever open", level2, seed)
			}
		}
	}
}
