package compress

import (
	"testing"

	"spire/internal/event"
	"spire/internal/model"
)

// cycleStream is three individually valid level-2 events whose
// containments form a cycle: a cascade over it would never end. The same
// stream is committed as the FuzzDecompressorStream seed "cycle".
func cycleStream() []event.Event {
	return []event.Event{
		event.NewStartContainment(1, 2, 1),
		event.NewStartContainment(2, 1, 1),
		event.NewMissing(1, 0, 1),
	}
}

func TestDecompressorRejectsContainmentCycle(t *testing.T) {
	d := NewDecompressor()
	if out, err := d.Step(cycleStream()); err == nil {
		t.Fatalf("cycle accepted, decompressed to %v", out)
	}
	if out, err := d.Step([]event.Event{event.NewStartContainment(3, 3, 2)}); err == nil {
		t.Fatalf("self-containment accepted, decompressed to %v", out)
	}
}

// FuzzDecompressorStream feeds arbitrary bytes, decoded with event.Decode
// and grouped by emission epoch, through Step and then Close: every call
// must return events or an error, never panic or overflow the stack.
func FuzzDecompressorStream(f *testing.F) {
	w := newGenWorld(1)
	l2 := NewLevel2(levelOfT)
	var seed []byte
	for now := model.Epoch(1); now <= 30; now++ {
		res, _ := w.step(now)
		for _, e := range l2.Compress(res) {
			seed, _ = event.Append(seed, e)
		}
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, b []byte) {
		var evs []event.Event
		for len(b) > 0 {
			e, n, err := event.Decode(b)
			if err != nil {
				break
			}
			evs = append(evs, e)
			b = b[n:]
		}
		d := NewDecompressor()
		var last model.Epoch
		for len(evs) > 0 {
			at := evs[0].Emitted()
			i := 1
			for i < len(evs) && evs[i].Emitted() == at {
				i++
			}
			if _, err := d.Step(evs[:i]); err != nil {
				return
			}
			last = max(last, at)
			evs = evs[i:]
		}
		d.Close(last + 1)
	})
}
