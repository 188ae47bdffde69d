package trace

import (
	"bufio"
	"cmp"
	"encoding/json"
	"io"
	"slices"

	"spire/internal/model"
)

// Anomaly flags attached to epoch spans.
const (
	AnomalyConflictStorm = "conflict-storm"
	AnomalyEdgeChurn     = "edge-churn"
	AnomalyEpochGap      = "epoch-gap"
)

// Span is one epoch's flight-recorder entry: what the pipeline did and
// how long each stage took. The pipeline fills every field but the
// anomalies, which EndEpoch flags.
type Span struct {
	Epoch   model.Epoch `json:"epoch"`
	Partial bool        `json:"partial,omitempty"`

	Readings int64 `json:"readings"`
	Events   int64 `json:"events"`
	Bytes    int64 `json:"bytes,omitempty"`
	Retired  int64 `json:"retired,omitempty"`

	// Per-stage wall-clock nanoseconds (the pipeline of Fig. 2).
	DedupNS    int64 `json:"dedup_ns,omitempty"`
	UpdateNS   int64 `json:"update_ns,omitempty"`
	InferNS    int64 `json:"infer_ns,omitempty"`
	ConflictNS int64 `json:"conflict_ns,omitempty"`
	CompressNS int64 `json:"compress_ns,omitempty"`

	// Decision counts, each taken by the stage that decides: Table I
	// rulings, Fig. 4 edges created, dropped (plus §IV-C pruning) and
	// confirmed, and tombstone resurrections.
	Conflicts     int64 `json:"conflicts,omitempty"`
	EdgesCreated  int64 `json:"edges_created,omitempty"`
	EdgesDropped  int64 `json:"edges_dropped,omitempty"`
	Confirmations int64 `json:"confirmations,omitempty"`
	Resurrections int64 `json:"resurrections,omitempty"`

	Anomalies []string `json:"anomalies,omitempty"`
}

// spanLine and recordLine are the JSONL dump shapes; the type field lets
// one stream carry both spans and per-tag records.
type spanLine struct {
	Type string `json:"type"`
	Span
}

type recordLine struct {
	Type      string         `json:"type"`
	Tag       model.Tag      `json:"tag"`
	Epoch     model.Epoch    `json:"epoch"`
	Mechanism string         `json:"mechanism"`
	Citation  string         `json:"citation"`
	Location  string         `json:"location,omitempty"`
	Other     model.Tag      `json:"other,omitempty"`
	Reader    model.ReaderID `json:"reader,omitempty"`
	Prob      float64        `json:"probability,omitempty"`
	Aux       int32          `json:"detail,omitempty"`
}

func toRecordLine(r Record) recordLine {
	line := recordLine{
		Type:      "record",
		Tag:       r.Tag,
		Epoch:     r.Epoch,
		Mechanism: r.Mech.String(),
		Citation:  r.Mech.Citation(),
		Other:     r.Other,
		Reader:    r.Reader,
		Prob:      r.Prob,
		Aux:       r.Aux,
	}
	if hasLocation(r.Mech) && r.Loc != model.LocationNone {
		line.Location = r.Loc.String()
	}
	return line
}

// DumpJSONL writes the flight recorder's spans followed by the window's
// records (tags sorted, each tag's records oldest first), one JSON object
// per line. Nothing is written on a nil receiver.
func (rec *Recorder) DumpJSONL(w io.Writer) error {
	if rec == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range rec.Spans() {
		if err := enc.Encode(spanLine{Type: "span", Span: s}); err != nil {
			return err
		}
	}
	recs := rec.window()
	slices.SortStableFunc(recs, func(a, b Record) int { return cmp.Compare(a.Tag, b.Tag) })
	for _, r := range recs {
		if err := enc.Encode(toRecordLine(r)); err != nil {
			return err
		}
	}
	return bw.Flush()
}
