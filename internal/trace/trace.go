// Package trace is SPIRE's decision-provenance layer: a bounded,
// allocation-disciplined recorder of *why* the pipeline believes what it
// believes about each tag, plus an epoch flight recorder of per-stage
// timings and anomaly flags.
//
// SPIRE's answers are probabilistic inferences — a tag's reported
// location can come from a direct read (Fig. 4 step 1), from Eq. 3–4
// node inference, from a confirmed containment edge, or from a Table I
// conflict-resolution override — and without provenance the only way to
// know which is to re-derive the inference by hand. The recorder captures
// each such decision as a compact fixed-size Record at the moment it is
// made; Explain reassembles the causal chain behind a tag's current
// location and containment on demand.
//
// Two properties drive the design, mirroring the telemetry layer:
//
//   - Transparent disablement. Every method is a no-op on a nil
//     *Recorder, and producers skip building records unless
//     rec.Traces(tag), so the untraced hot path allocates nothing for
//     tracing. Span timings and decision counts come from the pipeline,
//     which keeps them traced or not. Recording is observation-only: a
//     traced run produces byte-identical event streams, stores, and
//     checkpoints (pinned by the transparency tests in internal/core).
//
//   - Bounded memory. Traced tags' records share one recency window, the
//     newest 1<<20 records (56 MB when full); epoch spans live in a
//     flight ring. Both overwrite their oldest entry, so memory is bounded
//     regardless of run length or tag count, and a tag stays explainable
//     while its newest records are in the window.
//
// The recorder is internally synchronized: the single-threaded pipeline
// records while HTTP handlers (/v1/explain, /debug/trace) read
// concurrently.
package trace

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"spire/internal/model"
	"spire/internal/ring"
)

// Mechanism identifies the pipeline decision behind a Record, citing the
// paper's equation, rule, or figure.
type Mechanism uint8

// The decision mechanisms, in rough pipeline order.
const (
	MechNone          Mechanism = iota
	MechDirectRead              // colored by a reader observation (Fig. 4 step 1)
	MechEdgeCreated             // possible-containment edge added (Fig. 4 step 2)
	MechEdgeDropped             // edge removed: color mismatch or confirmation contradiction (Fig. 4 step 3)
	MechConfirmed               // special-reader containment confirmation (Fig. 4 step 4)
	MechEdgeInference           // most-likely container chosen by Eq. 1–2
	MechEdgePruned              // low-confidence edge pruned during Eq. 1–2 (§IV-C)
	MechNodeInference           // most-likely location chosen by Eq. 3–4
	MechMajorityPoll            // parent adopted its children's majority location (Table I Rules II–III preamble)
	MechRuleI                   // Table I Rule I: observed parent overrides inferred child location
	MechRuleII                  // Table I Rule II: conflicting observed child ends its containment
	MechRuleIII                 // Table I Rule III: polled parent overrides inferred child location
	MechSuppressed              // level-2 compression: location rides on the container (§V-C)
	MechRetired                 // exit retirement (§IV-C graph pruning)
	MechResurrected             // tombstoned tag read by a non-exit reader: retirement revoked

	numMechanisms
)

// String returns the compact mechanism slug used in JSON output.
func (m Mechanism) String() string {
	switch m {
	case MechDirectRead:
		return "direct-read"
	case MechEdgeCreated:
		return "edge-created"
	case MechEdgeDropped:
		return "edge-dropped"
	case MechConfirmed:
		return "reader-confirmation"
	case MechEdgeInference:
		return "edge-inference"
	case MechEdgePruned:
		return "edge-pruned"
	case MechNodeInference:
		return "node-inference"
	case MechMajorityPoll:
		return "majority-poll"
	case MechRuleI:
		return "conflict-rule-I"
	case MechRuleII:
		return "conflict-rule-II"
	case MechRuleIII:
		return "conflict-rule-III"
	case MechSuppressed:
		return "level2-suppression"
	case MechRetired:
		return "exit-retirement"
	case MechResurrected:
		return "tombstone-resurrection"
	default:
		return "none"
	}
}

// Citation names the part of the paper that defines the mechanism.
func (m Mechanism) Citation() string {
	switch m {
	case MechDirectRead:
		return "Fig. 4 step 1 (observation)"
	case MechEdgeCreated:
		return "Fig. 4 step 2 (edge creation)"
	case MechEdgeDropped:
		return "Fig. 4 step 3 (edge removal)"
	case MechConfirmed:
		return "Fig. 4 step 4 (reader confirmation)"
	case MechEdgeInference:
		return "Eq. 1-2 (edge inference)"
	case MechEdgePruned:
		return "SIV-C (edge pruning)"
	case MechNodeInference:
		return "Eq. 3-4 (node inference)"
	case MechMajorityPoll:
		return "Table I Rules II-III (children poll)"
	case MechRuleI:
		return "Table I Rule I"
	case MechRuleII:
		return "Table I Rule II"
	case MechRuleIII:
		return "Table I Rule III"
	case MechSuppressed:
		return "SV-C (containment-based location compression)"
	case MechRetired:
		return "SIV-C (graph pruning at exit)"
	case MechResurrected:
		return "SIV-C (graph pruning, revoked)"
	default:
		return ""
	}
}

// Record is one provenance fact: a decision the pipeline made about Tag
// at Epoch. It is a fixed-size value — no pointers, no strings — so
// recording allocates only while the window grows to its bound.
//
// Field semantics by mechanism:
//
//	DirectRead      Loc = observed location, Reader = observing reader
//	EdgeCreated     Other = parent tag of the new edge
//	EdgeDropped     Other = parent tag; Aux 1 = color mismatch, 2 = confirmation contradiction
//	Confirmed       Other = confirmed parent, Reader = confirming reader, Loc = scan location
//	EdgeInference   Other = chosen container (NoTag = "no container"),
//	                Prob = normalized Eq. 2 probability, Aux = colocation bits set
//	EdgePruned      Other = parent tag of the pruned edge
//	NodeInference   Loc = chosen location, Prob = Eq. 4 belief,
//	                Aux = number of determined neighbors that propagated color
//	MajorityPoll    Loc = adopted location, Aux = votes for it
//	RuleI/RuleIII   Loc = location inherited from parent Other
//	RuleII          Other = ended containment's parent, Loc = child's kept location,
//	                Aux 1 = defensive both-observed variant
//	Suppressed      Other = reporting container, Loc = virtual (recoverable) location
//	Retired         Loc = exit location
//	Resurrected     Reader = the non-exit reader whose reading revoked retirement
type Record struct {
	Epoch  model.Epoch
	Tag    model.Tag
	Mech   Mechanism
	Loc    model.LocationID
	Other  model.Tag
	Reader model.ReaderID
	Prob   float64
	Aux    int32
}

// Reasons for MechEdgeDropped records.
const (
	DropColorMismatch int32 = 1
	DropConfirmation  int32 = 2
)

// Config sizes a Recorder.
type Config struct {
	// Epochs is the flight-recorder capacity: how many of the most recent
	// epoch spans are retained. Zero selects 256.
	Epochs int
	// All traces every tag; otherwise only Tags are traced. With neither,
	// the recorder keeps epoch spans only.
	All  bool
	Tags []model.Tag
}

// The recorder's fixed bound and anomaly thresholds.
const (
	windowCap     = 1 << 20 // newest traced records kept, across all tags
	conflictStorm = 32      // conflict-resolution decisions that flag an epoch span
	edgeChurn     = 1024    // dropped or pruned edges that flag an epoch span
)

// ParseTags parses a -trace-tags flag value: "all", "" (no per-tag
// tracing), or a comma-separated list of decimal tags.
func ParseTags(s string) (all bool, tags []model.Tag, err error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return false, nil, nil
	}
	if strings.EqualFold(s, "all") {
		return true, nil, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseUint(part, 10, 64)
		if err != nil || v == 0 {
			return false, nil, fmt.Errorf("trace: bad tag %q (want 'all' or comma-separated decimal tags)", part)
		}
		tags = append(tags, model.Tag(v))
	}
	return false, tags, nil
}

// Recorder captures provenance records and epoch spans. A nil *Recorder
// is the disabled mode: every method is a no-op (or returns a zero
// value), and producers gate the work of building records on
// rec.Traces(tag).
type Recorder struct {
	cfg    Config
	filter map[model.Tag]bool // nil when all or when no per-tag tracing

	mu        sync.Mutex
	records   ring.Ring[Record] // the provenance window over traced tags
	flight    ring.Ring[Span]
	lastEpoch model.Epoch
}

// New creates a Recorder.
func New(cfg Config) *Recorder {
	if cfg.Epochs <= 0 {
		cfg.Epochs = 256
	}
	rec := &Recorder{
		cfg:       cfg,
		records:   ring.New[Record](windowCap),
		flight:    ring.New[Span](cfg.Epochs),
		lastEpoch: model.EpochNone,
	}
	if !cfg.All && len(cfg.Tags) > 0 {
		rec.filter = make(map[model.Tag]bool, len(cfg.Tags))
		for _, g := range cfg.Tags {
			rec.filter[g] = true
		}
	}
	return rec
}

// Config returns the effective (defaulted) configuration. Zero value on
// a nil receiver.
func (rec *Recorder) Config() Config {
	if rec == nil {
		return Config{}
	}
	return rec.cfg
}

// Traces reports whether records are kept for tag. It reads only
// immutable state, so it is safe without the lock — producers use it to
// skip building records for untraced tags on hot paths.
func (rec *Recorder) Traces(g model.Tag) bool {
	if rec == nil {
		return false
	}
	return rec.cfg.All || rec.filter[g]
}

// Record stores one provenance record of a traced tag in the window,
// overwriting the oldest record at capacity; records of untraced tags
// are ignored. No-op on a nil receiver.
func (rec *Recorder) Record(r Record) {
	if !rec.Traces(r.Tag) {
		return
	}
	rec.mu.Lock()
	rec.records.Push(r)
	rec.mu.Unlock()
}

// EndEpoch flags span's anomalies and pushes it onto the flight ring
// (overwriting the oldest span at capacity). The caller fills everything
// else. No-op on a nil receiver.
func (rec *Recorder) EndEpoch(span Span) {
	if rec == nil {
		return
	}
	if span.Conflicts >= conflictStorm {
		span.Anomalies = append(span.Anomalies, AnomalyConflictStorm)
	}
	if span.EdgesDropped >= edgeChurn {
		span.Anomalies = append(span.Anomalies, AnomalyEdgeChurn)
	}
	rec.mu.Lock()
	if rec.lastEpoch != model.EpochNone && span.Epoch > rec.lastEpoch+1 {
		span.Anomalies = append(span.Anomalies, AnomalyEpochGap)
	}
	rec.lastEpoch = span.Epoch
	rec.flight.Push(span)
	rec.mu.Unlock()
}

// Spans returns the retained epoch spans, oldest first. Nil on a nil
// receiver.
func (rec *Recorder) Spans() []Span {
	if rec == nil {
		return nil
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.flight.AppendTo(nil)
}

// TagRecords returns tag's records in the window, oldest first. Nil when
// the window holds none or the receiver is nil.
func (rec *Recorder) TagRecords(g model.Tag) []Record {
	if rec == nil {
		return nil
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	var out []Record
	for i := 0; i < rec.records.Len(); i++ {
		if r := rec.records.At(i); r.Tag == g {
			out = append(out, r)
		}
	}
	return out
}

// TracedTags returns the tags with records in the window, sorted. Nil on
// a nil receiver.
func (rec *Recorder) TracedTags() []model.Tag {
	var out []model.Tag
	for _, r := range rec.window() {
		out = append(out, r.Tag)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// window copies the provenance window, oldest first.
func (rec *Recorder) window() []Record {
	if rec == nil {
		return nil
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.records.AppendTo(nil)
}
