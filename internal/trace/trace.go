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
//     *Recorder, and producers skip building records when rec is nil,
//     so the untraced hot path allocates nothing for tracing. Span
//     timings come from the substrate's stage clock, which runs traced or
//     not. Recording is observation-only: a traced run produces
//     byte-identical event streams, stores, and checkpoints (pinned by
//     the transparency tests in internal/core).
//
//   - Bounded memory. Per-tag records live in fixed-capacity rings that
//     overwrite their oldest entry; epoch spans live in a fixed-capacity
//     flight ring. Memory is bounded regardless of run length.
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
// recording never allocates once a tag's ring exists.
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
	// the recorder keeps the flight ring and mechanism counters only.
	All  bool
	Tags []model.Tag
}

// The recorder's fixed bounds and anomaly thresholds.
const (
	perTag        = 32      // records kept per traced tag
	maxTags       = 1 << 16 // tags with live rings; further tags' records are counted as dropped
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

// tagRing is a fixed-capacity overwrite-oldest ring of Records.
type tagRing struct {
	recs []Record
	next int
	n    int
}

func (r *tagRing) push(rec Record) {
	if r.n < len(r.recs) {
		r.recs[r.next] = rec
		r.next++
		r.n++
		if r.next == len(r.recs) {
			r.next = 0
		}
		return
	}
	r.recs[r.next] = rec
	r.next++
	if r.next == len(r.recs) {
		r.next = 0
	}
}

// snapshot returns the ring's records oldest-first.
func (r *tagRing) snapshot() []Record {
	out := make([]Record, 0, r.n)
	start := r.next - r.n
	if start < 0 {
		start += len(r.recs)
	}
	for i := 0; i < r.n; i++ {
		out = append(out, r.recs[(start+i)%len(r.recs)])
	}
	return out
}

// Recorder captures provenance records and epoch spans. A nil *Recorder
// is the disabled mode: every method is a no-op (or returns a zero
// value), and producers gate the work of building records on rec != nil.
type Recorder struct {
	cfg    Config
	all    bool
	filter map[model.Tag]bool // nil when all or when no per-tag tracing

	mu          sync.Mutex
	tags        map[model.Tag]*tagRing
	counts      [numMechanisms]int64 // current-epoch mechanism counters
	pendIngest  int64                // ingest ns observed since the last span
	flight      []Span               // fixed-capacity ring
	flightNext  int
	flightN     int
	lastEpoch   model.Epoch
	droppedTags int64 // records lost to the MaxTags cap
}

// New creates a Recorder.
func New(cfg Config) *Recorder {
	if cfg.Epochs <= 0 {
		cfg.Epochs = 256
	}
	rec := &Recorder{
		cfg:       cfg,
		all:       cfg.All,
		tags:      make(map[model.Tag]*tagRing),
		flight:    make([]Span, cfg.Epochs),
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

// Traces reports whether per-tag records are kept for tag. It reads only
// immutable state, so it is safe without the lock — producers use it to
// skip building records for untraced tags on hot paths.
func (rec *Recorder) Traces(g model.Tag) bool {
	if rec == nil {
		return false
	}
	return rec.all || rec.filter[g]
}

// Record stores one provenance record. The mechanism is always counted
// into the current epoch's span; the record itself is kept only when the
// tag is traced. No-op on a nil receiver.
func (rec *Recorder) Record(r Record) {
	if rec == nil {
		return
	}
	rec.mu.Lock()
	if r.Mech < numMechanisms {
		rec.counts[r.Mech]++
	}
	if rec.all || rec.filter[r.Tag] {
		ring := rec.tags[r.Tag]
		if ring == nil {
			if len(rec.tags) >= maxTags {
				rec.droppedTags++
				rec.mu.Unlock()
				return
			}
			ring = &tagRing{recs: make([]Record, perTag)}
			rec.tags[r.Tag] = ring
		}
		ring.push(r)
	}
	rec.mu.Unlock()
}

// ObserveIngest accumulates ingest-gate time for the next span; the
// runner calls it once per gated delivery. No-op on a nil receiver.
func (rec *Recorder) ObserveIngest(ns int64) {
	if rec == nil {
		return
	}
	rec.mu.Lock()
	rec.pendIngest += ns
	rec.mu.Unlock()
}

// BeginEpoch opens a new epoch: subsequent Record calls count into the
// span that EndEpoch closes. No-op on a nil receiver.
func (rec *Recorder) BeginEpoch(now model.Epoch) {
	if rec == nil {
		return
	}
	rec.mu.Lock()
	for i := range rec.counts {
		rec.counts[i] = 0
	}
	rec.mu.Unlock()
	_ = now // the epoch is carried by the span at EndEpoch
}

// EndEpoch completes span with the epoch's mechanism counters and anomaly
// flags, then pushes it onto the flight ring (overwriting the oldest span
// at capacity). The caller fills Epoch, stage timings, and stream counts.
// No-op on a nil receiver.
func (rec *Recorder) EndEpoch(span Span) {
	if rec == nil {
		return
	}
	rec.mu.Lock()
	span.IngestNS += rec.pendIngest
	rec.pendIngest = 0
	span.Conflicts = rec.counts[MechMajorityPoll] + rec.counts[MechRuleI] +
		rec.counts[MechRuleII] + rec.counts[MechRuleIII]
	span.EdgesCreated = rec.counts[MechEdgeCreated]
	span.EdgesDropped = rec.counts[MechEdgeDropped] + rec.counts[MechEdgePruned]
	span.Confirmations = rec.counts[MechConfirmed]
	span.Resurrections = rec.counts[MechResurrected]
	if span.Conflicts >= conflictStorm {
		span.Anomalies = append(span.Anomalies, AnomalyConflictStorm)
	}
	if span.EdgesDropped >= edgeChurn {
		span.Anomalies = append(span.Anomalies, AnomalyEdgeChurn)
	}
	if rec.lastEpoch != model.EpochNone && span.Epoch > rec.lastEpoch+1 {
		span.Anomalies = append(span.Anomalies, AnomalyEpochGap)
	}
	rec.lastEpoch = span.Epoch
	rec.flight[rec.flightNext] = span
	rec.flightNext++
	if rec.flightNext == len(rec.flight) {
		rec.flightNext = 0
	}
	if rec.flightN < len(rec.flight) {
		rec.flightN++
	}
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
	out := make([]Span, 0, rec.flightN)
	start := rec.flightNext - rec.flightN
	if start < 0 {
		start += len(rec.flight)
	}
	for i := 0; i < rec.flightN; i++ {
		out = append(out, rec.flight[(start+i)%len(rec.flight)])
	}
	return out
}

// TagRecords returns the retained records for tag, oldest first. Nil when
// the tag has none or the receiver is nil.
func (rec *Recorder) TagRecords(g model.Tag) []Record {
	if rec == nil {
		return nil
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	ring := rec.tags[g]
	if ring == nil {
		return nil
	}
	return ring.snapshot()
}

// TracedTags returns the tags with live record rings, sorted. Nil on a
// nil receiver.
func (rec *Recorder) TracedTags() []model.Tag {
	if rec == nil {
		return nil
	}
	rec.mu.Lock()
	out := make([]model.Tag, 0, len(rec.tags))
	for g := range rec.tags {
		out = append(out, g)
	}
	rec.mu.Unlock()
	slices.Sort(out)
	return out
}

// DroppedTags reports how many records were discarded because the maxTags
// cap was reached. Zero on a nil receiver.
func (rec *Recorder) DroppedTags() int64 {
	if rec == nil {
		return 0
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.droppedTags
}
