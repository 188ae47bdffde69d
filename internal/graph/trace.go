package graph

import "spire/internal/trace"

// SetTracer attaches a decision-provenance recorder. The graph records
// the Fig. 4 update decisions — colorings (direct reads), edge creation
// and removal, and special-reader confirmations. A nil recorder disables
// recording; the update hot path then takes no extra work. Recording is
// observation-only and never influences the update procedure.
func (g *Graph) SetTracer(rec *trace.Recorder) { g.rec = rec }
