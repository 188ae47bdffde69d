package main

import (
	"fmt"
	"math"
	"slices"
)

// percentile returns the nearest-rank q-quantile of xs (0 < q <= 1) and
// the number of samples strictly beyond it. xs need not be sorted.
func percentile(xs []float64, q float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	rank := int(math.Ceil(q * float64(len(sorted))))
	rank = min(max(rank, 1), len(sorted))
	return sorted[rank-1], len(sorted) - rank
}

// minBeyond is how many samples must lie beyond a reported percentile
// for it to be trusted.
const minBeyond = 10

// tailPercentile returns the q-quantile of xs, or an error when fewer
// than minBeyond samples lie beyond it: a tail read off a handful of
// samples is an anecdote, not a percentile.
func tailPercentile(xs []float64, q float64) (float64, error) {
	v, beyond := percentile(xs, q)
	if beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has only %d beyond it, need %d", q*100, len(xs), beyond, minBeyond)
	}
	return v, nil
}

// passTiming is what one replay of the timed section measured.
type passTiming struct {
	SetupS float64   // everything the system did before the first timed epoch
	WallS  float64   // wall clock of the timed section
	SegS   []float64 // the same wall clock, split into consecutive segments of segmentEpochs epochs
	LatMS  []float64 // per timed epoch: batch handed in -> events through the last sink
}

// segmentEpochs is the length of the segments a pass's wall clock is
// split into: three cycles of the once-a-minute shelf readers, long
// enough that every segment of every workload spans at least one garbage
// collection, so taking a segment's minimum cannot pick a pass that
// simply dodged the collector.
const segmentEpochs = 180

// composed is P replays of the identical timed section folded into one
// measurement.
type composed struct {
	Fastest int       // index of the pass with the shortest whole wall clock
	WallS   float64   // sum over segments of the segment's shortest time in any pass
	SetupS  float64   // shortest set-up
	LatMS   []float64 // per epoch, the shortest latency in any pass
}

// bestOf composes the passes. Contention on a shared host only ever adds
// time and comes in bursts, so the minimum is the estimator, taken at the
// finest grain that still carries the program's own costs: each epoch's
// latency is its minimum across the passes, and the wall clock behind the
// throughput is the sum of each segment's minimum (garbage collection
// included, see segmentEpochs). A whole pass is rarely free of bursts; a
// segment usually is in at least one of the passes.
func bestOf(passes []passTiming) (composed, error) {
	if len(passes) == 0 {
		return composed{}, fmt.Errorf("no passes")
	}
	c := composed{SetupS: passes[0].SetupS, LatMS: slices.Clone(passes[0].LatMS)}
	segs := slices.Clone(passes[0].SegS)
	for i, p := range passes[1:] {
		if len(p.LatMS) != len(c.LatMS) || len(p.SegS) != len(segs) {
			return composed{}, fmt.Errorf("pass %d timed %d epochs in %d segments, pass 0 timed %d in %d",
				i+1, len(p.LatMS), len(p.SegS), len(c.LatMS), len(segs))
		}
		if p.WallS < passes[c.Fastest].WallS {
			c.Fastest = i + 1
		}
		c.SetupS = min(c.SetupS, p.SetupS)
		for e, l := range p.LatMS {
			c.LatMS[e] = min(c.LatMS[e], l)
		}
		for s, t := range p.SegS {
			segs[s] = min(segs[s], t)
		}
	}
	for _, t := range segs {
		c.WallS += t
	}
	return c, nil
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), so a spread
// computed here equals the one the acceptance driver computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0], xs[0]
		}
		return 0, 0, 0
	}
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
