// Package inference implements SPIRE's probabilistic data interpretation
// (Section IV of the paper): edge inference for ambiguous containment,
// node inference for unknown locations, the iterative algorithm that
// applies both across the graph in increasing distance from the colored
// nodes, partial/complete inference scheduling, and the conflict
// resolution rules of Table I.
package inference

import (
	"fmt"

	"spire/internal/model"
)

// Config holds the inference parameters of Equations 1-4.
type Config struct {
	// Alpha is the Zipf exponent weighting the co-location history
	// (Eq. 1). α=0 weighs all S bits equally — the paper's best setting.
	Alpha float64

	// Beta partitions belief between recent co-location history (β) and
	// the last special-reader confirmation (1-β) in Eq. 2.
	Beta float64

	// AdaptiveBeta switches on the heuristic of Expt 1: per object, β is
	// the fraction of epochs — among those where the object or its
	// confirmed container was read — in which exactly one of the two was
	// read. Beta remains the fallback before any confirmation history.
	AdaptiveBeta bool

	// Gamma weighs colors propagated through containment edges (γ)
	// against the object's own fading color (1-γ) in Eq. 3.
	Gamma float64

	// Theta is the fading exponent of (now-seen_at)^-θ in Eqs. 3-4,
	// controlling how fast belief in a continued stay decays.
	Theta float64

	// PruneThreshold, when positive, drops edges whose un-normalized
	// Eq. 2 confidence falls below it during edge inference — the optional
	// memory-saving routine of Section IV-C / Expt 6 (the paper suggests
	// 0.25). Zero disables pruning; the accuracy experiments run without
	// it.
	PruneThreshold float64

	// PartialHops is l, the halo radius of partial inference (§IV-D).
	PartialHops int

	// DisableCache turns off the settled-component verdict-slab cache,
	// forcing every component to be re-swept each epoch. Outputs are
	// byte-identical either way; used by tests and benchmarks to isolate
	// the sweep cost. Runtime tuning only — never serialized into
	// checkpoints.
	DisableCache bool
}

// DefaultConfig returns the parameter setting the paper converges on for
// its workloads: α=0, β=0.4, γ=0.4, θ=1.25, l=1, pruning off.
func DefaultConfig() Config {
	return Config{
		Alpha:       0,
		Beta:        0.4,
		Gamma:       0.4,
		Theta:       1.25,
		PartialHops: 1,
	}
}

// Validate checks parameter ranges.
func (c Config) Validate() error {
	if c.Alpha < 0 {
		return fmt.Errorf("inference: Alpha %v must be >= 0", c.Alpha)
	}
	if c.Beta < 0 || c.Beta > 1 {
		return fmt.Errorf("inference: Beta %v out of [0,1]", c.Beta)
	}
	if c.Gamma < 0 || c.Gamma > 1 {
		return fmt.Errorf("inference: Gamma %v out of [0,1]", c.Gamma)
	}
	if c.Theta < 0 {
		return fmt.Errorf("inference: Theta %v must be >= 0", c.Theta)
	}
	if c.PruneThreshold < 0 {
		return fmt.Errorf("inference: PruneThreshold %v must be >= 0", c.PruneThreshold)
	}
	if c.PartialHops < 1 {
		return fmt.Errorf("inference: PartialHops %d must be >= 1", c.PartialHops)
	}
	return nil
}

// Mode selects complete inference (whole graph) or partial inference
// (l-hop halo of the colored nodes, "unknown" verdicts withheld).
type Mode uint8

// Inference modes.
const (
	Complete Mode = iota
	Partial
)

// String names the mode.
func (m Mode) String() string {
	if m == Partial {
		return "partial"
	}
	return "complete"
}

// Schedule decides, per epoch, whether to run complete or partial
// inference: complete in epochs that are a multiple of the least common
// multiple M of all reader periods, partial otherwise (§IV-D).
type Schedule struct {
	m model.Epoch
}

// NewSchedule derives the schedule from the configured readers.
func NewSchedule(readers []model.Reader) Schedule {
	m := model.Epoch(1)
	for _, r := range readers {
		p := r.Period
		if p < 1 {
			p = 1
		}
		m = lcm(m, p)
	}
	return Schedule{m: m}
}

// CompleteEvery returns M, the complete-inference period.
func (s Schedule) CompleteEvery() model.Epoch { return s.m }

// ModeAt returns the inference mode for epoch t.
func (s Schedule) ModeAt(t model.Epoch) Mode {
	if s.m <= 1 || t%s.m == 0 {
		return Complete
	}
	return Partial
}

func gcd(a, b model.Epoch) model.Epoch {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b model.Epoch) model.Epoch {
	return a / gcd(a, b) * b
}
