package cep

import "spire/internal/telemetry"

// Instruments bundles the engine's runtime-telemetry metrics. A nil
// *Instruments is the disabled mode: recording calls are skipped and the
// engine behaves identically (observation-only, like core's telemetry).
type Instruments struct {
	Events  *telemetry.Counter // events dispatched into the engine
	Matches *telemetry.Counter // matches emitted
	Dropped *telemetry.Counter // matches dropped by ring backpressure
	Evicted *telemetry.Counter // runs evicted by the per-subscription cap
	Subs    *telemetry.Gauge   // live subscriptions
	Runs    *telemetry.Gauge   // active partial-match runs
}

// NewInstruments registers the engine metrics on reg. Returns nil when
// reg is nil.
func NewInstruments(reg *telemetry.Registry) *Instruments {
	if reg == nil {
		return nil
	}
	return &Instruments{
		Events:  reg.Counter("spire_cep_events_total", "Events dispatched into the subscription engine."),
		Matches: reg.Counter("spire_cep_matches_total", "Pattern matches emitted."),
		Dropped: reg.Counter("spire_cep_matches_dropped_total", "Matches dropped by per-subscription buffer backpressure."),
		Evicted: reg.Counter("spire_cep_runs_evicted_total", "Partial-match runs evicted by the per-subscription cap."),
		Subs:    reg.Gauge("spire_cep_subscriptions", "Live subscriptions."),
		Runs:    reg.Gauge("spire_cep_runs", "Active partial-match runs."),
	}
}

// Instrument wires the engine to a telemetry registry; nil disables.
func (e *Engine) Instrument(reg *telemetry.Registry) *Instruments {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.tel = NewInstruments(reg)
	if e.tel != nil {
		e.tel.Subs.Set(int64(e.live))
		e.tel.Runs.Set(int64(e.nrun))
	}
	return e.tel
}
