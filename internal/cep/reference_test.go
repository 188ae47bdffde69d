package cep

import (
	"slices"
	"sort"

	"spire/internal/event"
	"spire/internal/model"
)

// TimedEvent pairs an event with the epoch it was dispatched in — the
// engine clock when the event entered Epoch().
type TimedEvent struct {
	At model.Epoch
	Ev event.Event
}

// Parse compiles a pattern from its source text with every tag(N)
// literal kept in its step: the full pattern MatchReference runs.
func Parse(src string) (*Pattern, error) {
	var c parsed
	if err := c.parse(src); err != nil {
		return nil, err
	}
	return &Pattern{Steps: slices.Clone(c.steps[:c.n]), Within: c.within, pieces: []string{src}}, nil
}

// MatchReference is the brute-force window-scan oracle the differential
// fuzz target checks the incremental engine against. For every event that
// could anchor the pattern it scans forward over the rest of the stream,
// applying exactly the semantics documented on the engine:
//
//   - runs are partitioned by the event's object;
//   - each event advances a run by at most one positive step;
//   - an event satisfying both a non-trailing NOT and the following
//     positive step advances the sequence;
//   - positive steps must land within [t1, t1+W]; a trailing NOT holds
//     through (t1, t1+W] and completes at t1+W, provided the engine clock
//     reached the window end (end is the last clock value fed).
//
// Matches are returned sorted by (Object, Start, At); duplicates are kept
// (two anchors at one epoch yield two matches, as in the engine).
func MatchReference(p *Pattern, evs []TimedEvent, end model.Epoch, subID int) []Match {
	var out []Match
	for i, te := range evs {
		if te.Ev.Object == model.NoTag || !p.matches(0, te.Ev, nil, nil) {
			continue
		}
		if m, ok := scanFrom(p, evs, i, end); ok {
			m.Sub = subID
			out = append(out, m)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Object != out[b].Object {
			return out[a].Object < out[b].Object
		}
		if out[a].Start != out[b].Start {
			return out[a].Start < out[b].Start
		}
		return out[a].At < out[b].At
	})
	return out
}

// scanFrom simulates one run anchored at evs[i].
func scanFrom(p *Pattern, evs []TimedEvent, i int, end model.Epoch) (Match, bool) {
	anchor := evs[i]
	obj := anchor.Ev.Object
	t1 := anchor.At
	deadline := model.InfiniteEpoch
	if p.Within > 0 {
		deadline = t1 + p.Within
	}
	var binds [MaxSteps]binding
	bind(&binds, 0, anchor.Ev)
	idx := 1
	if idx >= len(p.Steps) {
		return Match{Object: obj, Start: t1, At: t1}, true
	}

	for j := i + 1; j < len(evs); j++ {
		te := evs[j]
		if te.At > deadline {
			break // window closed before this event
		}
		if te.Ev.Object != obj {
			continue
		}
		st := &p.Steps[idx]
		if st.Neg {
			if idx == len(p.Steps)-1 {
				if p.matches(idx, te.Ev, &binds, nil) {
					return Match{}, false // absence violated
				}
				continue
			}
			if p.matches(idx+1, te.Ev, &binds, nil) {
				bind(&binds, idx+1, te.Ev)
				idx += 2
				if idx >= len(p.Steps) {
					return Match{Object: obj, Start: t1, At: te.At}, true
				}
				continue
			}
			if p.matches(idx, te.Ev, &binds, nil) {
				return Match{}, false
			}
			continue
		}
		if p.matches(idx, te.Ev, &binds, nil) {
			bind(&binds, idx, te.Ev)
			idx++
			if idx >= len(p.Steps) {
				return Match{Object: obj, Start: t1, At: te.At}, true
			}
		}
	}

	// Stream exhausted (or window closed): only a pending trailing NOT
	// can still complete, and only if the clock reached the window end.
	if idx == len(p.Steps)-1 && p.Steps[idx].Neg && deadline <= end {
		return Match{Object: obj, Start: t1, At: deadline}, true
	}
	return Match{}, false
}
