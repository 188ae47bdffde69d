// Package spire_test hosts the benchmark harness that regenerates every
// table and figure of the paper's evaluation (Section VI).
//
// Each benchmark runs the corresponding experiment driver at quick scale
// (shapes preserved, minutes not hours) and reports the headline numbers
// as custom benchmark metrics; the rendered tables go to the benchmark
// log. For paper-scale runs use:
//
//	go run ./cmd/spirebench -expt all
package spire_test

import (
	"testing"

	"spire/internal/experiments"
)

// Benchmarks run their sweep cells serially (Workers: 1) so per-op times
// and the custom timing metrics stay comparable across machines and with
// earlier revisions; `spirebench -j` is where parallel wall clock is
// measured.
var benchOpts = experiments.Options{Quick: true, Workers: 1}

func runTable(b *testing.B, f func(experiments.Options) (*experiments.Table, error)) *experiments.Table {
	b.Helper()
	b.ReportAllocs()
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		t, err = f(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + t.String())
	return t
}

// BenchmarkFig9aContainmentVsBeta regenerates Fig. 9(a): containment
// error as β sweeps, per shelf-reader frequency, plus adaptive β.
func BenchmarkFig9aContainmentVsBeta(b *testing.B) {
	t := runTable(b, experiments.Fig9a)
	if v, ok := t.Cell("adaptive", t.Columns[0]); ok {
		b.ReportMetric(v, "adaptive-err")
	}
}

// BenchmarkFig9bLocationVsGamma regenerates Fig. 9(b): location error as
// γ sweeps.
func BenchmarkFig9bLocationVsGamma(b *testing.B) {
	runTable(b, experiments.Fig9b)
}

// BenchmarkFig9cLocationVsTheta regenerates Fig. 9(c): location error as
// θ sweeps.
func BenchmarkFig9cLocationVsTheta(b *testing.B) {
	runTable(b, experiments.Fig9c)
}

// BenchmarkFig9dErrorVsReadRate regenerates Fig. 9(d): location and
// containment error across read rates.
func BenchmarkFig9dErrorVsReadRate(b *testing.B) {
	t := runTable(b, experiments.Fig9d)
	if v, ok := t.Cell("0.85", "location"); ok {
		b.ReportMetric(v, "loc-err@0.85")
	}
	if v, ok := t.Cell("0.85", "containment"); ok {
		b.ReportMetric(v, "cont-err@0.85")
	}
}

// BenchmarkFig9eAnomalyError regenerates Fig. 9(e): error rate under the
// theft workload as θ sweeps.
func BenchmarkFig9eAnomalyError(b *testing.B) {
	runTable(b, experiments.Fig9e)
}

// BenchmarkFig9fDetectionDelay regenerates Fig. 9(f): anomaly detection
// delay as θ sweeps.
func BenchmarkFig9fDetectionDelay(b *testing.B) {
	runTable(b, experiments.Fig9f)
}

// BenchmarkTable3ProcessingSpeed regenerates Table III: the substrate's
// per-stage and total cost of a complete-inference epoch at growing node
// counts.
func BenchmarkTable3ProcessingSpeed(b *testing.B) {
	t := runTable(b, experiments.Table3)
	if len(t.Rows) > 0 {
		if v, ok := t.Cell(t.Rows[len(t.Rows)-1].Label, "total"); ok {
			b.ReportMetric(v, "s/epoch@max")
		}
	}
}

// BenchmarkFig10Memory regenerates Fig. 10: graph memory under different
// edge-pruning thresholds.
func BenchmarkFig10Memory(b *testing.B) {
	runTable(b, experiments.Fig10)
}

// BenchmarkFig11aFMeasure, BenchmarkFig11bCompressionLocation, and
// BenchmarkFig11cCompressionFull regenerate Fig. 11. The underlying sweep
// is shared; each bench reruns it so the reported time reflects one
// artifact's cost honestly.
func BenchmarkFig11aFMeasure(b *testing.B) {
	b.ReportAllocs()
	var a *experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		a, _, _, err = experiments.Fig11(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + a.String())
	if v, ok := a.Cell("0.85", "SPIRE"); ok {
		b.ReportMetric(v, "spire-F@0.85")
	}
	if v, ok := a.Cell("0.85", "SMURF"); ok {
		b.ReportMetric(v, "smurf-F@0.85")
	}
}

func BenchmarkFig11bCompressionLocation(b *testing.B) {
	b.ReportAllocs()
	var tb *experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		_, tb, _, err = experiments.Fig11(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + tb.String())
	if v, ok := tb.Cell("0.85", "SPIRE L2"); ok {
		b.ReportMetric(v, "l2-ratio@0.85")
	}
}

func BenchmarkFig11cCompressionFull(b *testing.B) {
	b.ReportAllocs()
	var tc *experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		_, _, tc, err = experiments.Fig11(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + tc.String())
	if v, ok := tc.Cell("0.85", "L2 full"); ok {
		b.ReportMetric(v, "l2-full-ratio@0.85")
	}
}

// BenchmarkAblationPartialInference quantifies the partial/complete
// inference schedule of Section IV-D.
func BenchmarkAblationPartialInference(b *testing.B) {
	runTable(b, experiments.AblationPartialInference)
}

// BenchmarkAblationPruneThreshold quantifies the accuracy cost of edge
// pruning (Expt 6's accuracy notes).
func BenchmarkAblationPruneThreshold(b *testing.B) {
	runTable(b, experiments.AblationPruneThreshold)
}
