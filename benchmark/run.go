package main

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"time"

	"spire/internal/stream"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and bounds; a test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, identical on every
// workload. Bound is the share of the parent's median by which a change
// may worsen the metric. The acceptance driver takes ten runs on ten
// seeds and refuses a benchmark whose inter-quartile spread exceeds a
// bound, so each bound is three times the widest such spread measured
// (README.md, "Bounds"), rounded up, and at most the 0.25 the driver
// allows — which is where all four timings end up on a shared host.
var endToEnd = []metricDef{
	{"readings_per_s", "1/s", "higher", 0.25},
	{"epoch_p50_ms", "ms", "lower", 0.25},
	{"epoch_p99_ms", "ms", "lower", 0.25},
	{"compression_ratio", "ratio", "lower", 0.05},
	{"event_f_measure", "ratio", "higher", 0.03},
	{"live_heap_mb", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the metrics of single layers, from the traced pass. A
// layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{Name: "stream.decode_s_per_mread", Unit: "s/Mread", Better: "lower"},
	{Name: "dedup.clean_s_per_mread", Unit: "s/Mread", Better: "lower"},
	{Name: "dedup.dropped_share", Unit: "share", Better: "higher"},
	{Name: "graph.update_s_per_mread", Unit: "s/Mread", Better: "lower"},
	{Name: "graph.nodes", Unit: "count", Better: "lower"},
	{Name: "graph.edges", Unit: "count", Better: "lower"},
	{Name: "graph.approx_mb", Unit: "MB", Better: "lower"},
	{Name: "inference.infer_s_per_mread", Unit: "s/Mread", Better: "lower"},
	{Name: "inference.partial_epoch_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "inference.complete_epoch_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "inference.dirty_node_share", Unit: "share", Better: "lower"},
	{Name: "inference.conflict_s_per_mread", Unit: "s/Mread", Better: "lower"},
	{Name: "compress.emit_s_per_mread", Unit: "s/Mread", Better: "lower"},
	{Name: "compress.events_per_kread", Unit: "1/kread", Better: "lower"},
	{Name: "compress.open_intervals", Unit: "count", Better: "lower"},
	{Name: "compress.decompress_s_per_mevent", Unit: "s/Mevent", Better: "lower"},
	{Name: "event.encode_s_per_mevent", Unit: "s/Mevent", Better: "lower"},
	{Name: "eventlog.append_s_per_mevent", Unit: "s/Mevent", Better: "lower"},
	{Name: "eventlog.replay_s_per_mevent", Unit: "s/Mevent", Better: "lower"},
	{Name: "query.feed_s_per_mevent", Unit: "s/Mevent", Better: "lower"},
	{Name: "query.read_us_p50", Unit: "us", Better: "lower"},
	{Name: "cep.dispatch_s_per_mevent", Unit: "s/Mevent", Better: "lower"},
	{Name: "cep.matches", Unit: "count", Better: "higher"},
	{Name: "checkpoint.restore_s", Unit: "s", Better: "lower"},
	{Name: "checkpoint.snapshot_mb", Unit: "MB", Better: "lower"},
	{Name: "core.process_s_per_mread", Unit: "s/Mread", Better: "lower"},
	{Name: "core.self_s_per_mread", Unit: "s/Mread", Better: "lower"},
	{Name: "core.alloc_bytes_per_read", Unit: "B/read", Better: "lower"},
	{Name: "core.mallocs_per_kread", Unit: "1/kread", Better: "lower"},
	{Name: "core.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "federate.worker_s_per_mread", Unit: "s/Mread", Better: "lower"},
	{Name: "stream.frame_encode_s_per_mevent", Unit: "s/Mevent", Better: "lower"},
	{Name: "stream.frame_decode_s_per_mevent", Unit: "s/Mevent", Better: "lower"},
	{Name: "federate.wire_bytes_per_epoch", Unit: "B/epoch", Better: "lower"},
	{Name: "federate.barrier_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "federate.barrier_wait_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "federate.merge_s_per_mevent", Unit: "s/Mevent", Better: "lower"},
	{Name: "federate.ack_rtt_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "federate.zone_skew", Unit: "ratio", Better: "lower"},
	{Name: "ledger.unaccounted_share", Unit: "share", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
	{Name: "sim.gen_s", Unit: "s", Better: "lower"},
	{Name: "host.probe_ms_min", Unit: "ms", Better: "lower"},
	{Name: "host.probe_ms_max", Unit: "ms", Better: "lower"},
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run measured. The acceptance driver reads only
// the summary line main prints from it; the whole report goes to
// out/result-<workload>.json.
type report struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Traced   bool     `json:"traced"`
	Host     hostInfo `json:"host"`

	Passes      int       `json:"passes"`
	PassWallS   []float64 `json:"pass_wall_s"`
	PassSetupS  []float64 `json:"pass_setup_s"`
	FastestPass int       `json:"fastest_pass"`
	// ComposedWallS is the wall clock readings_per_s is computed from:
	// the sum of each segment's shortest time in any pass.
	ComposedWallS float64 `json:"composed_wall_s"`

	TimedEpochs      int   `json:"timed_epochs"`
	Readings         int64 `json:"readings"`
	Events           int64 `json:"events"`
	LatencySamples   int   `json:"latency_samples"`
	SamplesBeyondP99 int   `json:"samples_beyond_p99"`

	// Where the run's own time went, outside the passes.
	GenS   float64 `json:"gen_s"`   // simulator, ground truth, encoding
	RampS  float64 `json:"ramp_s"`  // substrate building the ramp checkpoint
	CheckS float64 `json:"check_s"` // reference merge and output checks

	TraceSHA256  string `json:"trace_sha256"`
	OutputSHA256 string `json:"output_sha256"`

	OpsAttempted int      `json:"ops_attempted"`
	OpsFailed    int      `json:"ops_failed"`
	Problems     []string `json:"problems,omitempty"`

	EndToEnd map[string]metricValue `json:"end_to_end"`
	PerLayer map[string]metricValue `json:"per_layer,omitempty"`
	Ledger   []ledgerRow            `json:"ledger,omitempty"`
}

const (
	// nominalPassS is the share of -seconds one replay is given: what a
	// pass of the costliest workload takes on the 2-core reference host,
	// restore, lead-in and forced collections included. The number of
	// replays follows from the flag alone, never from how fast the host
	// happens to be, so two runs under comparison compose their minima
	// from the same number of passes and attempt the same operations.
	nominalPassS = 3.0
	// minPasses is the fewest replays a run composes its best-of from.
	minPasses = 3
	// runLimit aborts a run the acceptance driver is about to kill at its
	// 180 s limit anyway, with a message instead of a missing result.
	runLimit = 150 * time.Second
)

// passesFor is the number of replays a run of the given length makes: 8 at
// the manifest's 25 s.
func passesFor(seconds float64) int {
	return max(minPasses, int(seconds/nominalPassS))
}

// runWorkload generates the workload's trace from the seed, replays it
// nPasses times against a fresh system, checks the output and assembles
// the report. With traced set one extra, traced pass supplies the
// per-layer metrics; it never contributes to the end-to-end ones.
func runWorkload(w workload, seed int64, nPasses int, traced bool, outDir string) (*report, error) {
	runStart := time.Now()
	gcPercent := 100
	debug.SetGCPercent(gcPercent)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	tmpDir, err := os.MkdirTemp(outDir, "tmp-"+w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmpDir)

	tr, err := generate(w, seed, tmpDir)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	var ref *zoneSlates
	checkStart := time.Now()
	if w.Zones > 0 {
		if ref, err = referenceMerge(tr); err != nil {
			return nil, fmt.Errorf("reference merge: %w", err)
		}
	}
	checkS := time.Since(checkStart).Seconds()
	replay := func(rec *recorder) (*passResult, error) {
		if w.Zones > 0 {
			return replayCluster(tr, rec)
		}
		return replaySingle(tr, tmpDir, rec)
	}
	pr, err := newProbe()
	if err != nil {
		return nil, fmt.Errorf("host probe: %w", err)
	}
	defer pr.close()

	rep := &report{
		Workload: w.Name, Seed: seed, Traced: traced,
		GenS: tr.genS, RampS: tr.rampS,
		TraceSHA256: hex.EncodeToString(tr.hash[:]),
	}
	var passes []*passResult
	var timings []passTiming
	for i := 0; i < nPasses; i++ {
		if time.Since(runStart) > runLimit {
			return nil, fmt.Errorf("still replaying after %v (pass %d of %d): host too slow for this benchmark", runLimit, i, nPasses)
		}
		pr.sample()
		p, err := replay(nil)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", i, err)
		}
		if i > 0 {
			p.out, p.ends = nil, nil // only the first pass's output is decoded; the rest are compared by hash
		}
		passes = append(passes, p)
		timings = append(timings, p.passTiming)
		rep.PassWallS = append(rep.PassWallS, p.WallS)
		rep.PassSetupS = append(rep.PassSetupS, p.SetupS)
	}
	pr.sample()

	first := passes[0]
	best, err := bestOf(timings)
	if err != nil {
		return nil, err
	}
	latMS := best.LatMS
	fastest := passes[best.Fastest]
	rep.Passes, rep.FastestPass, rep.ComposedWallS = len(passes), best.Fastest, best.WallS
	rep.TimedEpochs, rep.Readings, rep.Events = first.epochs, first.readings, first.events
	rep.OutputSHA256 = hex.EncodeToString(first.hash[:])
	rep.OpsAttempted = first.epochs * len(passes)

	// Correctness: every pass produced the same bytes, and those bytes
	// are a well-formed, accurate event stream.
	for i, p := range passes[1:] {
		if p.hash != first.hash {
			rep.OpsFailed += p.epochs
			rep.Problems = append(rep.Problems, fmt.Sprintf("pass %d output differs from pass 0", i+1))
		}
	}
	checkStart = time.Now()
	v := checkOutput(tr, first)
	rep.CheckS = checkS + time.Since(checkStart).Seconds()
	if ref != nil && ref.hash != first.hash {
		v.fail("cluster output differs from the serial Merger over the same zone outputs")
	}
	if first.readings == 0 || first.events == 0 {
		v.fail("timed section carried %d readings and produced %d events", first.readings, first.events)
	}

	p50, _ := percentile(latMS, 0.50)
	p99, err := tailPercentile(latMS, 0.99)
	if err != nil {
		return nil, fmt.Errorf("epoch latency: %w", err)
	}
	_, rep.SamplesBeyondP99 = percentile(latMS, 0.99)
	rep.LatencySamples = len(latMS)
	rawBytes := float64(first.readings) * stream.ReadingSize
	rep.EndToEnd = values(endToEnd, map[string]float64{
		"readings_per_s":    float64(first.readings) / best.WallS,
		"epoch_p50_ms":      p50,
		"epoch_p99_ms":      p99,
		"compression_ratio": float64(first.eventBytes) / rawBytes,
		"event_f_measure":   v.fMeasure,
		"live_heap_mb":      passes[len(passes)-1].liveHeapMB,
		"setup_s":           best.SetupS,
	})

	if traced {
		rec := newRecorder(first.epochs * 16)
		pr.sample()
		tp, err := replay(rec)
		if err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		pr.sample()
		rep.OpsAttempted += tp.epochs
		if tp.hash != first.hash {
			rep.OpsFailed += tp.epochs
			rep.Problems = append(rep.Problems, "traced pass output differs from the untraced passes")
		}
		var unaccounted float64
		rep.Ledger, unaccounted = ledger(rec.spans, rec.timedFrom, tp.WallS)
		layers, err := layerMetrics(tr, ref, fastest, tp, rec)
		if err != nil {
			return nil, err
		}
		layers["ledger.unaccounted_share"] = unaccounted
		layers["sim.gen_s"] = tr.genS
		layers["host.probe_ms_min"] = slices.Min(pr.ms)
		layers["host.probe_ms_max"] = slices.Max(pr.ms)
		rep.PerLayer = values(perLayer, layers)
		if err := writeSpans(filepath.Join(outDir, "trace-"+w.Name+".jsonl"), rec.spans); err != nil {
			return nil, err
		}
	}
	rep.Host = pr.host(gcPercent)
	if len(v.problems) > 0 {
		// A wrong stream makes every epoch of the run wrong.
		rep.OpsFailed = rep.OpsAttempted
		rep.Problems = append(rep.Problems, v.problems...)
	}
	return rep, nil
}

// values pairs every defined metric with its measured value; a metric
// nobody measured is a bug in the benchmark, not a zero.
func values(defs []metricDef, measured map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := measured[d.Name]
		if !ok {
			panic("benchmark: metric " + d.Name + " was never measured")
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(measured) != len(defs) {
		panic(fmt.Sprintf("benchmark: %d metrics measured, %d defined", len(measured), len(defs)))
	}
	return out
}

// layerMetrics derives the per-layer metrics from the traced pass tp, its
// spans, and the fastest untraced pass best (which supplies the numbers
// tracing itself would disturb: allocation counts and the wall clock the
// overhead is measured against).
func layerMetrics(tr *trace, ref *zoneSlates, best, tp *passResult, rec *recorder) (map[string]float64, error) {
	total, self := layerTimes(rec.spans, rec.timedFrom)
	mread := float64(tp.readings) / 1e6
	mevent := float64(tp.events) / 1e6
	median := func(xs []float64) float64 {
		v, _ := percentile(xs, 0.5)
		return v
	}
	// per divides, reporting 0 for a layer that saw no work.
	per := func(v, by float64) float64 {
		if by == 0 {
			return 0
		}
		return v / by
	}
	m := map[string]float64{
		"stream.decode_s_per_mread":        per(self["stream.decode"], mread),
		"dedup.clean_s_per_mread":          per(self["dedup.clean"], mread),
		"dedup.dropped_share":              1 - per(float64(tp.kept), float64(tp.readings)),
		"graph.update_s_per_mread":         per(self["graph.update"], mread),
		"graph.nodes":                      float64(tp.graphNodes),
		"graph.edges":                      float64(tp.graphEdges),
		"graph.approx_mb":                  tp.graphApproxMB,
		"inference.infer_s_per_mread":      per(self["inference.infer"], mread),
		"inference.partial_epoch_ms_p50":   median(tp.partialMS),
		"inference.complete_epoch_ms_p50":  median(tp.completeMS),
		"inference.dirty_node_share":       per(float64(tp.nodesInferred), float64(tp.nodesInferred+tp.nodesCached)),
		"inference.conflict_s_per_mread":   per(self["inference.conflict"], mread),
		"compress.emit_s_per_mread":        per(self["compress.emit"], mread),
		"compress.events_per_kread":        per(float64(tp.events), mread*1e3),
		"compress.open_intervals":          float64(tp.openIntervals),
		"compress.decompress_s_per_mevent": per(self["compress.decompress"], mevent),
		"event.encode_s_per_mevent":        per(self["event.encode"], mevent),
		"eventlog.append_s_per_mevent":     per(self["eventlog.append"], mevent),
		"eventlog.replay_s_per_mevent":     0,
		"query.feed_s_per_mevent":          per(self["query.feed"], mevent),
		"query.read_us_p50":                median(tp.readUS),
		"cep.dispatch_s_per_mevent":        per(self["cep.dispatch"], mevent),
		"cep.matches":                      float64(tp.cepMatches),
		"checkpoint.restore_s":             tp.restoreS,
		"checkpoint.snapshot_mb":           float64(len(tr.checkpoint)) / (1 << 20),
		"core.process_s_per_mread":         per(total["core.process"], mread),
		"core.self_s_per_mread":            per(self["core.process"], mread),
		"core.alloc_bytes_per_read":        float64(best.allocBytes) / float64(best.readings),
		"core.mallocs_per_kread":           float64(best.mallocs) / (float64(best.readings) / 1e3),
		"core.gc_cycles":                   float64(best.gcCycles),
		"federate.worker_s_per_mread":      0,
		"stream.frame_encode_s_per_mevent": 0,
		"stream.frame_decode_s_per_mevent": 0,
		"federate.wire_bytes_per_epoch":    0,
		"federate.barrier_wait_ms_p50":     0,
		"federate.barrier_wait_ms_p99":     0,
		"federate.merge_s_per_mevent":      0,
		"federate.ack_rtt_ms_p50":          0,
		"federate.zone_skew":               0,
		"trace.overhead_share":             tp.WallS/best.WallS - 1,
	}
	if n := len(tr.ramp.ev); n > 0 && tp.replayS > 0 {
		m["eventlog.replay_s_per_mevent"] = tp.replayS / (float64(n) / 1e6)
	}
	if ref == nil {
		return m, nil
	}

	// Cluster: the zones' substrates run inside federate.Worker, so the
	// per-stage costs are each zone's own instruments summed over zones
	// (CPU seconds per million readings of the whole cluster), and the
	// per-site cost is the slowest zone's.
	fed := tp.fed
	var zoneS []float64
	var stages [len(stageNames)]float64
	for _, zs := range fed.zoneStageS {
		var sum float64
		for i, s := range zs {
			stages[i] += s
			sum += s
		}
		zoneS = append(zoneS, sum)
	}
	var allZones float64
	for _, s := range zoneS {
		allZones += s
	}
	m["dedup.clean_s_per_mread"] = stages[0] / mread
	m["graph.update_s_per_mread"] = stages[1] / mread
	m["inference.infer_s_per_mread"] = stages[2] / mread
	m["inference.conflict_s_per_mread"] = stages[3] / mread
	m["compress.emit_s_per_mread"] = stages[4] / mread
	m["core.process_s_per_mread"] = allZones / mread
	m["dedup.dropped_share"] = 1 - float64(ref.kept)/float64(tp.readings)
	m["inference.dirty_node_share"] = float64(ref.nodesInferred) / float64(ref.nodesInferred+ref.nodesCached)
	m["federate.worker_s_per_mread"] = slices.Max(zoneS) / mread
	m["federate.zone_skew"] = slices.Max(zoneS) / (allZones / float64(len(zoneS)))
	m["federate.wire_bytes_per_epoch"] = float64(fed.wireBytes) / float64(tp.epochs)
	m["federate.barrier_wait_ms_p50"] = median(fed.barrierMS)
	m["federate.barrier_wait_ms_p99"], _ = percentile(fed.barrierMS, 0.99)
	m["federate.ack_rtt_ms_p50"] = median(fed.ackRTTMS)
	lr, err := replayLayers(tr, ref)
	if err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	zoneMevent := float64(lr.events) / 1e6
	m["federate.merge_s_per_mevent"] = lr.mergeS / zoneMevent
	m["stream.frame_encode_s_per_mevent"] = lr.encodeS / zoneMevent
	m["stream.frame_decode_s_per_mevent"] = lr.decodeS / zoneMevent
	return m, nil
}
