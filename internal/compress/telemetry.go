package compress

import "spire/internal/telemetry"

// Instruments are the compressor's runtime-telemetry metrics. The open
// interval counts are the compressor's entire cumulative state — every
// open pair is a future End event the stream still owes — so they are the
// gauge to watch for output-side state growth; the counters track the
// emitted volume the compression experiments report offline. All metrics
// carry a level label so multi-process deployments running different
// compression levels stay distinguishable on one dashboard. A nil
// *Instruments records nothing.
type Instruments struct {
	OpenLocations    *telemetry.Gauge
	OpenContainments *telemetry.Gauge
	Events           *telemetry.Counter
	Bytes            *telemetry.Counter
}

// NewInstruments registers the compressor metrics on reg with the given
// compression-level label value ("1" or "2"). Returns nil when reg is
// nil, which makes every Record call a no-op.
func NewInstruments(reg *telemetry.Registry, level string) *Instruments {
	if reg == nil {
		return nil
	}
	return &Instruments{
		OpenLocations: reg.Gauge("spire_compress_open_locations",
			"Objects with an open (unterminated) location interval.", "level", level),
		OpenContainments: reg.Gauge("spire_compress_open_containments",
			"Objects with an open (unterminated) containment interval.", "level", level),
		Events: reg.Counter("spire_compress_events_total",
			"Compressed output events emitted.", "level", level),
		Bytes: reg.Counter("spire_compress_bytes_total",
			"Compressed output bytes emitted (binary wire format).", "level", level),
	}
}

// Record captures the open-interval gauges and adds one epoch's emission
// to the counters. The substrate calls it once per epoch.
func (ins *Instruments) Record(openLocs, openConts int, events int, bytes int64) {
	if ins == nil {
		return
	}
	ins.OpenLocations.Set(int64(openLocs))
	ins.OpenContainments.Set(int64(openConts))
	ins.Events.Add(int64(events))
	ins.Bytes.Add(bytes)
}

// Opens reports the number of open location and containment intervals,
// from the running counts. Level-2 location intervals count only
// uncontained objects, whose locations are the ones actually being
// reported.
func (c *Level1) Opens() (locs, conts int) { return c.open.locs, c.open.conts }
