// Package smurf re-implements SMURF, the adaptive per-tag smoothing
// cleaner of Jeffery, Garofalakis, and Franklin (VLDB 2006), which the
// paper uses as its baseline (Expts 7-8).
//
// SMURF views RFID readings as a random sample of the tags in a reader's
// range and sizes each tag's smoothing window statistically. SMURF runs
// reader-local (it is per-reader middleware in HiFi), so windows are
// counted in the owning reader's interrogation cycles, not wall-clock
// epochs: a shelf reader that interrogates once a minute gives a tag one
// sampling opportunity per minute.
//
// Per tag, the cleaner keeps an exponentially weighted estimate p̂ of the
// per-cycle detection probability, updated at every interrogation cycle of
// the reader that currently "owns" the tag (the last reader to have read
// it). The binomial completeness condition requires a window of
//
//	w* = ceil(ln(1/δ)/p̂)
//
// cycles to keep the false-negative probability below δ; the tag is
// smoothed in (reported present at the owning reader's location) until it
// has missed w* consecutive cycles, after which it is reported away. This
// gap rule is the transition detector: the probability of w* consecutive
// misses while present is (1-p̂)^w* < δ.
//
// As in the paper's comparison, the cleaner is extended with static reader
// locations so its output is a location stream (never containment) that
// level-1 compression can consume.
package smurf

import (
	"fmt"
	"math"

	"spire/internal/inference"
	"spire/internal/model"
)

// SMURF's parameters, at the values of the SMURF paper's experiments.
const (
	// delta is δ, the completeness condition's allowed probability that a
	// present tag goes unread for a whole window: w* = ⌈ln(1/δ)/p̂⌉.
	delta float64 = 0.05
	// minWindow and maxWindow clamp w*, in owner-reader cycles; the
	// maximum bounds how long a departed tag is still smoothed in.
	minWindow, maxWindow = 2, 30
	// ewma is the weight of the newest cycle in p̂, SMURF's estimate of
	// the per-cycle detection probability from the readings it has seen.
	ewma float64 = 0.1
	// floorP bounds p̂ away from zero, so w* stays finite.
	floorP float64 = 0.1
)

// tagState is the per-tag smoothing state.
type tagState struct {
	owner   model.ReaderID
	loc     model.LocationID
	period  model.Epoch
	p       float64     // EWMA per-cycle detection estimate
	lastAt  model.Epoch // epoch of the last actual reading
	misses  int         // consecutive missed cycles of the owner
	present bool
}

// Cleaner smooths a raw RFID stream tag by tag. It is not safe for
// concurrent use.
type Cleaner struct {
	readers map[model.ReaderID]model.Reader
	states  map[model.Tag]*tagState
}

// New builds a Cleaner for the given reader deployment.
func New(readers []model.Reader) *Cleaner {
	c := &Cleaner{
		readers: make(map[model.ReaderID]model.Reader, len(readers)),
		states:  make(map[model.Tag]*tagState),
	}
	for _, r := range readers {
		if r.Period < 1 {
			r.Period = 1
		}
		c.readers[r.ID] = r
	}
	return c
}

// Len reports the number of tags currently tracked.
func (c *Cleaner) Len() int { return len(c.states) }

// Forget drops a tag's state.
func (c *Cleaner) Forget(g model.Tag) { delete(c.states, g) }

// window returns w* for the tag's current detection estimate.
func window(p float64) int {
	return min(max(int(math.Ceil(math.Log(1/delta)/p)), minWindow), maxWindow)
}

// ProcessBatch ingests one epoch's readings and returns the smoothed
// interpretation as an inference.Result: every tag within its smoothing
// window is reported present at the location of the reader that read it
// last; a tag whose window has been missed w* times in a row is reported
// away (model.LocationUnknown). A tag read by several readers in one
// epoch belongs to the lowest reader ID, the deduplicator's fallback
// tie-break. SMURF infers no containment, so Parents maps every tag to
// model.NoTag. The batch is not modified.
func (c *Cleaner) ProcessBatch(b *model.Batch) (*inference.Result, error) {
	now := b.Time
	// Ingest readings: the reading reassigns ownership to its reader.
	// Groups ascend by reader, so a tag already read this epoch keeps
	// its lower reader.
	for i, gr := range b.Groups {
		r, ok := c.readers[gr.Reader]
		if !ok {
			return nil, fmt.Errorf("smurf: reading from unknown reader %d", gr.Reader)
		}
		for _, g := range b.GroupTags(i) {
			st := c.states[g]
			if st == nil {
				st = &tagState{p: 1}
				c.states[g] = st
			} else if st.lastAt == now {
				continue
			}
			st.owner = gr.Reader
			st.loc = r.Location
			st.period = r.Period
			st.lastAt = now
			st.misses = 0
			st.present = true
		}
	}

	res := &inference.Result{
		Now:       now,
		Locations: make(map[model.Tag]model.LocationID, len(c.states)),
		Parents:   make(map[model.Tag]model.Tag, len(c.states)),
		Observed:  make(map[model.Tag]bool),
	}
	for g, st := range c.states {
		// Long-dead tags are forgotten so memory and per-epoch work stay
		// proportional to the live population; the downstream compressor
		// has latched their Missing state already.
		if !st.present && now-st.lastAt > 4*maxWindow*st.period {
			delete(c.states, g)
			continue
		}
		// Update the detection estimate at each interrogation cycle of
		// the owning reader.
		if now%st.period == 0 || st.lastAt == now {
			hit := 0.0
			if st.lastAt == now {
				hit = 1
			}
			// Each product rounds before the sum (no fused multiply-add
			// on any architecture).
			st.p = float64((1-ewma)*st.p) + float64(ewma*hit)
			if st.p < floorP {
				st.p = floorP
			}
			if st.lastAt != now && st.present {
				st.misses++
			}
		}
		if st.present && st.misses >= window(st.p) {
			st.present = false
		}
		res.Parents[g] = model.NoTag
		if st.present {
			res.Locations[g] = st.loc
			if st.lastAt == now {
				res.Observed[g] = true
			}
		} else {
			res.Locations[g] = model.LocationUnknown
		}
	}
	return res, nil
}
