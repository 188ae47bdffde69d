package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"os"
	"slices"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public functions. Times are nanoseconds since the pass
// began; Parent is the index of the enclosing span, -1 at top level.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Epoch  int64  `json:"epoch"`
}

// recorder keeps a traced pass's spans in a preallocated slice; nothing
// is written until the run ends. A nil recorder is tracing switched off.
type recorder struct {
	t0    time.Time
	spans []span
	// timedFrom is the offset at which the timed section began; spans
	// that start earlier belong to set-up and stay out of the ledger.
	timedFrom int64
}

func newRecorder(capacity int) *recorder {
	return &recorder{spans: make([]span, 0, capacity)}
}

// start marks the beginning of the pass: span times count from here.
func (r *recorder) start() { r.t0 = time.Now() }

// now reads the clock as an offset from the start of the pass.
func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// add records a finished span and returns its index for use as a parent.
func (r *recorder) add(name string, start, end int64, parent int, epoch int64) int {
	r.spans = append(r.spans, span{Name: name, Start: start, End: end, Parent: parent, Epoch: epoch})
	return len(r.spans) - 1
}

// layerTimes sums, per span name, total time (the spans' durations) and
// self time (duration minus the part child spans cover) over the spans
// that start at or after from.
func layerTimes(spans []span, from int64) (total, self map[string]float64) {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		if d := min(s.End, p.End) - max(s.Start, p.Start); d > 0 {
			covered[s.Parent] += d
		}
	}
	total, self = make(map[string]float64), make(map[string]float64)
	for i, s := range spans {
		if s.Start < from {
			continue
		}
		total[s.Name] += float64(s.End-s.Start) / 1e9
		self[s.Name] += float64(s.End-s.Start-covered[i]) / 1e9
	}
	return total, self
}

// ledgerRow is one line of the per-layer ledger.
type ledgerRow struct {
	Layer   string  `json:"layer"`
	Seconds float64 `json:"seconds"`
	Share   float64 `json:"share"`
}

// ledger turns the timed section of a traced pass into rows that sum to
// its wall clock: one row of self time per span name, plus an
// "unaccounted" row holding whatever no top-level span covered.
func ledger(spans []span, from int64, wallS float64) (rows []ledgerRow, unaccountedShare float64) {
	var top float64
	for _, s := range spans {
		if s.Parent < 0 && s.Start >= from {
			top += float64(s.End-s.Start) / 1e9
		}
	}
	_, self := layerTimes(spans, from)
	for name, sec := range self {
		rows = append(rows, ledgerRow{Layer: name, Seconds: sec})
	}
	rows = append(rows, ledgerRow{Layer: "unaccounted", Seconds: wallS - top})
	for i := range rows {
		rows[i].Share = rows[i].Seconds / wallS
	}
	slices.SortFunc(rows, func(a, b ledgerRow) int {
		if c := cmp.Compare(b.Seconds, a.Seconds); c != 0 {
			return c
		}
		return cmp.Compare(a.Layer, b.Layer)
	})
	return rows, (wallS - top) / wallS
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
