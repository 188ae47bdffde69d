package telemetry

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestNilMetricsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	h.Observe(1.5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil metrics must read as zero")
	}
}

func TestNilRegistryHandsOutNilMetrics(t *testing.T) {
	var r *Registry
	if r.Counter("x", "") != nil {
		t.Error("nil registry must return a nil counter")
	}
	if r.Gauge("x", "") != nil {
		t.Error("nil registry must return a nil gauge")
	}
	if r.Histogram("x", "", DefLatencyBuckets) != nil {
		t.Error("nil registry must return a nil histogram")
	}
	if r.Snapshot() != nil {
		t.Error("nil registry snapshot must be nil")
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Errorf("nil registry exposition: err=%v, wrote %q", err, sb.String())
	}
}

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("spire_test_total", "a counter")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters are monotone
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	g := r.Gauge("spire_test_gauge", "a gauge")
	g.Set(42)
	g.Add(-2)
	if g.Value() != 40 {
		t.Errorf("gauge = %d, want 40", g.Value())
	}
	// Re-registration returns the same instance.
	if r.Counter("spire_test_total", "a counter") != c {
		t.Error("re-registering a counter must return the existing one")
	}
	if r.Gauge("spire_test_gauge", "") != g {
		t.Error("re-registering a gauge must return the existing one")
	}
}

// TestFuncMetrics: a CounterFunc or GaugeFunc child reports its
// function's value at each Snapshot, renders like any other child of its
// kind, and keeps its first registration.
func TestFuncMetrics(t *testing.T) {
	r := NewRegistry()
	var n, depth int64
	r.CounterFunc("spire_fn_total", "A count kept elsewhere.", func() int64 { return n }, "zone", "0")
	r.GaugeFunc("spire_fn_depth", "A depth kept elsewhere.", func() int64 { return depth })
	r.GaugeFunc("spire_fn_depth", "A depth kept elsewhere.", func() int64 { return -1 })
	n, depth = 3, 7
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP spire_fn_depth A depth kept elsewhere.
# TYPE spire_fn_depth gauge
spire_fn_depth 7
# HELP spire_fn_total A count kept elsewhere.
# TYPE spire_fn_total counter
spire_fn_total{zone="0"} 3
`
	if got := sb.String(); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
	n = 4
	if snap := r.Snapshot(); snap[1].Value != 4 {
		t.Errorf("second snapshot reads %v, want the function's new value 4", snap[1].Value)
	}
	var nilReg *Registry
	nilReg.CounterFunc("x", "", func() int64 { return 1 })
	nilReg.GaugeFunc("x", "", func() int64 { return 1 })
}

func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("spire_conflict", "")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("spire_conflict", "")
}

func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("spire_test_seconds", "", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.0000001, 2, 4, 5, 100} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d metrics, want 1", len(snap))
	}
	m := snap[0]
	// le is inclusive: 1 lands in the le=1 bucket, 5 in le=5.
	wantCum := []uint64{2, 4, 6, 7} // le=1, le=2, le=5, +Inf
	for i, b := range m.Buckets {
		if b.Count != wantCum[i] {
			t.Errorf("bucket %d (le=%g): cum %d, want %d", i, b.UpperBound, b.Count, wantCum[i])
		}
	}
	if !math.IsInf(m.Buckets[len(m.Buckets)-1].UpperBound, 1) {
		t.Error("last bucket must be +Inf")
	}
	if m.Count != 7 {
		t.Errorf("count = %d, want 7", m.Count)
	}
}

// TestHistogramProperties is the property test of the PR brief: for random
// observation sequences, (a) the +Inf cumulative bucket equals the total
// observation count, (b) cumulative bucket counts are monotone, (c) the
// sum matches the observed values, and (d) snapshots are idempotent —
// snapshotting is read-only and two back-to-back snapshots of quiescent
// state are deep-equal.
func TestHistogramProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		r := NewRegistry()
		// Random bucket layout: 1-12 sorted positive bounds.
		nb := 1 + rng.Intn(12)
		bounds := make([]float64, nb)
		x := 0.0
		for i := range bounds {
			x += rng.Float64() + 1e-9
			bounds[i] = x
		}
		h := r.Histogram("spire_prop_seconds", "", bounds)

		n := rng.Intn(2000)
		var sum float64
		for i := 0; i < n; i++ {
			// Spread observations across, below, and beyond the buckets,
			// including exact boundary hits.
			var v float64
			switch rng.Intn(3) {
			case 0:
				v = bounds[rng.Intn(nb)] // exact boundary
			case 1:
				v = rng.Float64() * x * 2 // anywhere, incl. beyond the last bound
			default:
				v = rng.NormFloat64() // negative values land in the first bucket
			}
			h.Observe(v)
			sum += v
		}

		snap1 := r.Snapshot()
		snap2 := r.Snapshot()
		if !reflect.DeepEqual(snap1, snap2) {
			t.Fatalf("trial %d: back-to-back snapshots differ", trial)
		}
		m := snap1[0]
		if m.Count != uint64(n) {
			t.Fatalf("trial %d: count %d, want %d", trial, m.Count, n)
		}
		if got := m.Buckets[len(m.Buckets)-1].Count; got != uint64(n) {
			t.Fatalf("trial %d: +Inf bucket %d, want %d", trial, got, n)
		}
		for i := 1; i < len(m.Buckets); i++ {
			if m.Buckets[i].Count < m.Buckets[i-1].Count {
				t.Fatalf("trial %d: cumulative counts not monotone at bucket %d", trial, i)
			}
		}
		if math.Abs(m.Sum-sum) > 1e-6*math.Max(1, math.Abs(sum)) {
			t.Fatalf("trial %d: sum %g, want %g", trial, m.Sum, sum)
		}
		if h.Count() != uint64(n) || h.Sum() != m.Sum {
			t.Fatalf("trial %d: accessor mismatch", trial)
		}
	}
}

// TestHistogramConcurrentObserve drives Observe from many goroutines; run
// under -race this doubles as the data-race check. No count may be lost
// and the sum must be exact (integer-valued observations keep float
// addition exact regardless of ordering).
func TestHistogramConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("spire_conc_seconds", "", []float64{1, 2, 4, 8})
	c := r.Counter("spire_conc_total", "")
	g := r.Gauge("spire_conc_gauge", "")
	const workers = 8
	const perWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				h.Observe(float64(rng.Intn(10)))
				c.Inc()
				g.Set(int64(i))
			}
		}(int64(w))
	}
	// Concurrent scrapes must be safe too.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			if err := r.WritePrometheus(&sb); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done

	const total = workers * perWorker
	if h.Count() != total {
		t.Errorf("histogram lost counts: %d, want %d", h.Count(), total)
	}
	if c.Value() != total {
		t.Errorf("counter lost increments: %d, want %d", c.Value(), total)
	}
	if h.Sum() != math.Trunc(h.Sum()) {
		t.Errorf("integer observations must give an integer sum, got %g", h.Sum())
	}
	snap := r.Snapshot()
	for _, m := range snap {
		if m.Type == "histogram" && m.Buckets[len(m.Buckets)-1].Count != total {
			t.Errorf("+Inf bucket %d, want %d", m.Buckets[len(m.Buckets)-1].Count, total)
		}
	}
}

func TestSnapshotStableSorted(t *testing.T) {
	r := NewRegistry()
	// Register out of order, with labeled children out of order too.
	r.Gauge("spire_b_gauge", "")
	r.Counter("spire_a_total", "", "stage", "update")
	r.Counter("spire_a_total", "", "stage", "dedup")
	r.Histogram("spire_c_seconds", "", []float64{1})
	snap := r.Snapshot()
	var got []string
	for _, m := range snap {
		got = append(got, m.Name+"|"+m.Labels)
	}
	want := []string{
		`spire_a_total|stage="dedup"`,
		`spire_a_total|stage="update"`,
		"spire_b_gauge|",
		"spire_c_seconds|",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("snapshot order = %v, want %v", got, want)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("spire_events_total", "Events emitted.", "level", "2").Add(7)
	r.Gauge("spire_graph_nodes", "Graph nodes.").Set(42)
	h := r.Histogram("spire_stage_seconds", "Stage latency.", []float64{0.5, 1}, "stage", "infer")
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(3)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := `# HELP spire_events_total Events emitted.
# TYPE spire_events_total counter
spire_events_total{level="2"} 7
# HELP spire_graph_nodes Graph nodes.
# TYPE spire_graph_nodes gauge
spire_graph_nodes 42
# HELP spire_stage_seconds Stage latency.
# TYPE spire_stage_seconds histogram
spire_stage_seconds_bucket{stage="infer",le="0.5"} 1
spire_stage_seconds_bucket{stage="infer",le="1"} 2
spire_stage_seconds_bucket{stage="infer",le="+Inf"} 3
spire_stage_seconds_sum{stage="infer"} 4
spire_stage_seconds_count{stage="infer"} 3
`
	if got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

// TestLabelEscaping pins the Prometheus 0.0.4 label-value escapes
// (backslash, double quote, newline) against hostile values: each value
// must round-trip into exactly the escaped form, and the exposition must
// stay one sample per line — an unescaped newline would split a sample
// and corrupt every series after it.
func TestLabelEscaping(t *testing.T) {
	cases := []struct {
		name, value, want string
	}{
		{"mixed", "a\"b\\c\nd", `a\"b\\c\nd`},
		{"quote-only", `say "hi"`, `say \"hi\"`},
		{"backslash-run", `C:\tmp\x`, `C:\\tmp\\x`},
		{"newline-bomb", "line1\nline2\nline3", `line1\nline2\nline3`},
		{"trailing-backslash", `dir\`, `dir\\`},
		{"escape-lookalike", `already\nescaped`, `already\\nescaped`},
		{"injection", "v\"} 0\nevil_total 1", `v\"} 0\nevil_total 1`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry()
			r.Counter("spire_esc_total", "", "path", tc.value).Inc()
			r.Histogram("spire_esc_seconds", "", []float64{1}, "path", tc.value).Observe(0.5)
			var sb strings.Builder
			if err := r.WritePrometheus(&sb); err != nil {
				t.Fatal(err)
			}
			out := sb.String()
			if !strings.Contains(out, `path="`+tc.want+`"`) {
				t.Errorf("label value %q not escaped to %q:\n%s", tc.value, tc.want, out)
			}
			if !strings.Contains(out, `path="`+tc.want+`",le="1"`) {
				t.Errorf("histogram lost escaping next to the le label:\n%s", out)
			}
			for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
				if line == "" {
					t.Errorf("blank line in exposition (unescaped newline?):\n%s", out)
				}
				if !strings.HasPrefix(line, "#") && !strings.HasPrefix(line, "spire_esc_") {
					t.Errorf("sample line injected by hostile label: %q", line)
				}
			}
		})
	}
}

// TestRecordingAllocs pins the zero-allocation contract of the hot-path
// operations; the epoch loop relies on it.
func TestRecordingAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("spire_alloc_total", "")
	g := r.Gauge("spire_alloc_gauge", "")
	h := r.Histogram("spire_alloc_seconds", "", DefLatencyBuckets)
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(9)
		g.Add(-1)
		h.Observe(0.0042)
	}); n != 0 {
		t.Errorf("hot-path recording allocates %.1f times per op, want 0", n)
	}
	// Disabled (nil) metrics must be allocation-free too.
	var nc *Counter
	var ng *Gauge
	var nh *Histogram
	if n := testing.AllocsPerRun(1000, func() {
		nc.Inc()
		ng.Set(1)
		nh.Observe(1)
	}); n != 0 {
		t.Errorf("nil recording allocates %.1f times per op, want 0", n)
	}
}
