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

// Config parameterizes the cleaner.
type Config struct {
	// Delta is the allowed false-negative probability of the completeness
	// condition (typical: 0.05).
	Delta float64
	// MinWindow and MaxWindow clamp w*, in owner-reader cycles.
	MinWindow, MaxWindow int
	// Alpha is the EWMA weight for the per-cycle detection estimate.
	Alpha float64
	// FloorP bounds p̂ away from zero so w* stays finite.
	FloorP float64
}

// DefaultConfig returns the conventional SMURF parameters.
func DefaultConfig() Config {
	return Config{Delta: 0.05, MinWindow: 2, MaxWindow: 30, Alpha: 0.1, FloorP: 0.1}
}

// Validate checks parameter ranges.
func (c Config) Validate() error {
	if c.Delta <= 0 || c.Delta >= 1 {
		return fmt.Errorf("smurf: Delta %v out of (0,1)", c.Delta)
	}
	if c.MinWindow < 1 || c.MaxWindow < c.MinWindow {
		return fmt.Errorf("smurf: window range [%d,%d] invalid", c.MinWindow, c.MaxWindow)
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		return fmt.Errorf("smurf: Alpha %v out of (0,1]", c.Alpha)
	}
	if c.FloorP <= 0 || c.FloorP > 1 {
		return fmt.Errorf("smurf: FloorP %v out of (0,1]", c.FloorP)
	}
	return nil
}

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
	cfg     Config
	readers map[model.ReaderID]model.Reader
	states  map[model.Tag]*tagState
}

// New builds a Cleaner for the given reader deployment.
func New(cfg Config, readers []model.Reader) (*Cleaner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cleaner{
		cfg:     cfg,
		readers: make(map[model.ReaderID]model.Reader, len(readers)),
		states:  make(map[model.Tag]*tagState),
	}
	for _, r := range readers {
		if r.Period < 1 {
			r.Period = 1
		}
		c.readers[r.ID] = r
	}
	return c, nil
}

// Len reports the number of tags currently tracked.
func (c *Cleaner) Len() int { return len(c.states) }

// Forget drops a tag's state.
func (c *Cleaner) Forget(g model.Tag) { delete(c.states, g) }

// window returns w* for the tag's current detection estimate.
func (c *Cleaner) window(p float64) int {
	w := int(math.Ceil(math.Log(1/c.cfg.Delta) / p))
	if w < c.cfg.MinWindow {
		w = c.cfg.MinWindow
	}
	if w > c.cfg.MaxWindow {
		w = c.cfg.MaxWindow
	}
	return w
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
		if !st.present && now-st.lastAt > 4*model.Epoch(c.cfg.MaxWindow)*st.period {
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
			st.p = (1-c.cfg.Alpha)*st.p + c.cfg.Alpha*hit
			if st.p < c.cfg.FloorP {
				st.p = c.cfg.FloorP
			}
			if st.lastAt != now && st.present {
				st.misses++
			}
		}
		if st.present && st.misses >= c.window(st.p) {
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
