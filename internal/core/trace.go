package core

import "spire/internal/trace"

// Trace attaches a decision-provenance recorder to the substrate and every
// module that makes tag-level decisions (graph update, inference, conflict
// resolution, compression). A nil recorder disables tracing; the call is
// cheap and may be repeated (e.g. after a restore, which builds a fresh
// substrate). Like telemetry, tracing is observation-only: the
// transparency tests pin that a traced run produces byte-identical output
// streams and snapshots.
func (s *Substrate) Trace(rec *trace.Recorder) {
	s.rec = rec
	s.graph.SetTracer(rec)
	s.inf.SetTracer(rec)
	s.comp.SetTracer(rec)
}
