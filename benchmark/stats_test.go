package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending, so sorting is exercised
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n      int
		q      float64
		want   float64
		beyond int
	}{
		{100, 0.50, 50, 50},
		{100, 0.99, 99, 1},
		{1200, 0.99, 1188, 12},
		{1000, 0.99, 990, 10},
		{5, 1.0, 5, 0},
		{1, 0.5, 1, 0},
	} {
		got, beyond := percentile(seq(c.n), c.q)
		if got != c.want || beyond != c.beyond {
			t.Errorf("percentile(1..%d, %g) = %g with %d beyond, want %g with %d", c.n, c.q, got, beyond, c.want, c.beyond)
		}
	}
	if v, beyond := percentile(nil, 0.5); v != 0 || beyond != 0 {
		t.Errorf("percentile(nil) = %g, %d", v, beyond)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	if v, err := tailPercentile(seq(1000), 0.99); err != nil || v != 990 {
		t.Errorf("1000 samples: p99 = %g, %v; want 990 with exactly 10 beyond", v, err)
	}
	if _, err := tailPercentile(seq(999), 0.99); err == nil {
		t.Error("999 samples leave 9 beyond p99: want an error")
	}
	if _, err := tailPercentile(seq(1200), 0.999); err == nil {
		t.Error("1200 samples leave 1 beyond p99.9: want an error")
	}
}

func TestBestOfComposition(t *testing.T) {
	passes := []passTiming{
		{SetupS: 0.30, WallS: 5.0, SegS: []float64{2.0, 3.0}, LatMS: []float64{1, 9, 3}},
		{SetupS: 0.20, WallS: 4.0, SegS: []float64{2.5, 1.5}, LatMS: []float64{2, 2, 2}},
		{SetupS: 0.25, WallS: 4.5, SegS: []float64{2.2, 2.3}, LatMS: []float64{5, 1, 4}},
	}
	c, err := bestOf(passes)
	if err != nil {
		t.Fatal(err)
	}
	if c.Fastest != 1 {
		t.Errorf("fastest pass = %d, want 1 (the 4.0 s wall)", c.Fastest)
	}
	if c.WallS != 2.0+1.5 {
		t.Errorf("composed wall = %g, want the sum of per-segment minima 3.5", c.WallS)
	}
	if c.SetupS != 0.20 {
		t.Errorf("setup = %g, want the fastest set-up 0.20", c.SetupS)
	}
	want := []float64{1, 1, 2}
	for i := range want {
		if c.LatMS[i] != want[i] {
			t.Errorf("epoch %d latency = %g, want the per-epoch minimum %g", i, c.LatMS[i], want[i])
		}
	}
	if passes[0].LatMS[1] != 9 || passes[0].SegS[1] != 3.0 {
		t.Error("bestOf modified its input")
	}
	if _, err := bestOf(append(passes, passTiming{SegS: []float64{1, 1}, LatMS: []float64{1}})); err == nil {
		t.Error("passes that timed different epoch counts must not compose")
	}
	if _, err := bestOf(nil); err == nil {
		t.Error("no passes: want an error")
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns for the same data.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 3, 1, 4, 2}, 1.5, 3, 4.5},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %g, want (8.25-2.75)/5.5 = 1", s)
	}
}
