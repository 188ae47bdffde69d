// Package telemetry is SPIRE's runtime observability layer: a small,
// dependency-free set of atomic counters, gauges, and fixed-bucket
// histograms behind a Registry that exposes a stable snapshot and the
// Prometheus text format.
//
// Two properties drive the design:
//
//   - Hot-path safety. Recording a sample is a handful of atomic
//     operations — no locks, no allocations, no formatting. The epoch loop
//     can observe every stage without perturbing the numbers it measures.
//
//   - Transparent disablement. Every metric method is a no-op on a nil
//     receiver, and a nil *Registry hands out nil metrics. Instrumented
//     code therefore calls its metrics unconditionally; whether telemetry
//     is enabled is decided once, at wiring time, and the instrumentation
//     can never change pipeline output (a contract pinned by the
//     transparency tests in internal/core).
//
// Registration (Counter/Gauge/Histogram) takes a mutex and may allocate;
// it is meant for startup. Recording and snapshotting are safe for
// concurrent use with each other, so an HTTP scrape never blocks the
// pipeline.
package telemetry

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one. No-op on a nil receiver.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n must be non-negative to keep the counter monotone;
// negative deltas are ignored). No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count (zero on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous integer value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds delta (may be negative). No-op on a nil receiver.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value (zero on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram in the Prometheus style: bucket i
// counts observations v <= bounds[i], with an implicit +Inf bucket at the
// end. Counts are per-bucket (not cumulative) internally; snapshots render
// the cumulative form. Observe is lock-free and allocation-free.
type Histogram struct {
	bounds  []float64       // sorted upper bounds, +Inf implicit
	counts  []atomic.Uint64 // len(bounds)+1
	sumBits atomic.Uint64   // float64 bits of the running sum, CAS-updated
}

// DefLatencyBuckets spans 1µs to 2.5s, a decade-and-a-half of per-stage
// epoch latencies: the fastest stages (dedup on a quiet epoch) sit in the
// low microseconds, a complete inference pass over a large graph in the
// tens of milliseconds, and a checkpoint fsync can reach the high tail.
var DefLatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	1e-1, 2.5e-1, 5e-1,
	1, 2.5,
}

// Observe records one sample. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v; equal values belong to the
	// bucket (le is inclusive).
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations (zero on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values (zero on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// metricKind is the Prometheus metric type.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// child is one registered metric instance: a label set within a family.
type child struct {
	labels string // rendered `k1="v1",k2="v2"` (empty for unlabeled)
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
	fn     func() int64 // CounterFunc/GaugeFunc: the value, read at Snapshot
}

// family groups the children sharing a metric name; Prometheus requires
// one HELP/TYPE header per name.
type family struct {
	name     string
	help     string
	kind     metricKind
	buckets  []float64 // histograms only
	children []*child  // sorted by labels at snapshot time
}

// Registry holds registered metrics. The zero value is not usable; create
// one with NewRegistry. All methods are safe on a nil *Registry, which
// returns nil (no-op) metrics — the disabled mode of the package.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// renderLabels turns alternating key, value pairs into the canonical
// `k1="v1",k2="v2"` form, sorted by key, with values escaped.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("telemetry: odd label list %q", kv))
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	slices.SortFunc(pairs, func(a, b pair) int { return strings.Compare(a.k, b.k) })
	var b strings.Builder
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabel applies the Prometheus label-value escapes.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// lookup finds or creates the family and the child for the label set.
// Returns nil if the registry is nil. Registering the same name and labels
// twice returns the existing metric; re-registering a name with a
// different kind panics (a wiring bug, not a runtime condition).
func (r *Registry) lookup(name, help string, kind metricKind, buckets []float64, fn func() int64, labels []string) *child {
	if r == nil {
		return nil
	}
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, buckets: buckets}
		r.fams[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("telemetry: %s re-registered as %s (was %s)", name, kind, f.kind))
	}
	for _, c := range f.children {
		if c.labels == ls {
			return c
		}
	}
	c := &child{labels: ls, fn: fn}
	switch {
	case fn != nil:
	case kind == kindCounter:
		c.ctr = &Counter{}
	case kind == kindGauge:
		c.gauge = &Gauge{}
	case kind == kindHistogram:
		h := &Histogram{bounds: append([]float64(nil), f.buckets...)}
		if !slices.IsSorted(h.bounds) {
			panic(fmt.Sprintf("telemetry: %s bucket bounds not sorted", name))
		}
		h.counts = make([]atomic.Uint64, len(h.bounds)+1)
		c.hist = h
	}
	f.children = append(f.children, c)
	return c
}

// Counter registers (or finds) a counter. Labels are alternating key,
// value pairs. Returns nil on a nil registry.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	c := r.lookup(name, help, kindCounter, nil, nil, labels)
	if c == nil {
		return nil
	}
	return c.ctr
}

// Gauge registers (or finds) a gauge. Returns nil on a nil registry.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	c := r.lookup(name, help, kindGauge, nil, nil, labels)
	if c == nil {
		return nil
	}
	return c.gauge
}

// CounterFunc registers a counter whose value is f's result at Snapshot
// time, for a count some other structure already keeps; f must be
// monotone and safe to call from any goroutine. The first registration
// of a name and label set wins. No-op on a nil registry.
func (r *Registry) CounterFunc(name, help string, f func() int64, labels ...string) {
	r.lookup(name, help, kindCounter, nil, f, labels)
}

// GaugeFunc registers a gauge whose value is f's result at Snapshot
// time (see CounterFunc). No-op on a nil registry.
func (r *Registry) GaugeFunc(name, help string, f func() int64, labels ...string) {
	r.lookup(name, help, kindGauge, nil, f, labels)
}

// Histogram registers (or finds) a histogram with the given bucket upper
// bounds (sorted ascending; +Inf is implicit). The bounds of the first
// registration win for the whole family. Returns nil on a nil registry.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	c := r.lookup(name, help, kindHistogram, buckets, nil, labels)
	if c == nil {
		return nil
	}
	return c.hist
}

// Bucket is one cumulative histogram bucket in a snapshot.
type Bucket struct {
	UpperBound float64 // math.Inf(1) for the +Inf bucket
	Count      uint64  // cumulative count of observations <= UpperBound
}

// MetricSnapshot is one metric instance at a point in time.
type MetricSnapshot struct {
	Name   string // family name
	Labels string // rendered label set, "" when unlabeled
	Help   string
	Type   string // "counter", "gauge", or "histogram"

	Value float64 // counter/gauge value

	// Histogram fields; Buckets is cumulative and ends with +Inf.
	Count   uint64
	Sum     float64
	Buckets []Bucket
}

// Snapshot returns every registered metric, sorted by name then label set.
// The order is stable across calls with the same registrations, and
// snapshotting mutates nothing, so back-to-back snapshots of quiescent
// state are identical. Func-backed values are read after the registry
// lock is released, so a value function may take its owner's locks.
// Returns nil on a nil registry.
func (r *Registry) Snapshot() []MetricSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	slices.SortFunc(fams, func(a, b *family) int { return strings.Compare(a.name, b.name) })

	var out []MetricSnapshot
	for _, f := range fams {
		children := append([]*child(nil), f.children...)
		slices.SortFunc(children, func(a, b *child) int { return strings.Compare(a.labels, b.labels) })
		for _, c := range children {
			m := MetricSnapshot{Name: f.name, Labels: c.labels, Help: f.help, Type: f.kind.String()}
			switch {
			case c.fn != nil:
				m.Value = float64(c.fn())
			case f.kind == kindCounter:
				m.Value = float64(c.ctr.Value())
			case f.kind == kindGauge:
				m.Value = float64(c.gauge.Value())
			case f.kind == kindHistogram:
				h := c.hist
				var cum uint64
				m.Buckets = make([]Bucket, 0, len(h.bounds)+1)
				for i, b := range h.bounds {
					cum += h.counts[i].Load()
					m.Buckets = append(m.Buckets, Bucket{UpperBound: b, Count: cum})
				}
				cum += h.counts[len(h.bounds)].Load()
				m.Buckets = append(m.Buckets, Bucket{UpperBound: math.Inf(1), Count: cum})
				m.Count = cum
				m.Sum = h.Sum()
			}
			out = append(out, m)
		}
	}
	return out
}
