package main

import (
	"math"
	"testing"
)

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		{Name: "setup", Start: 0, End: 50, Parent: -1, Epoch: -1},
		{Name: "process", Start: 100, End: 200, Parent: -1, Epoch: 1},
		{Name: "update", Start: 110, End: 130, Parent: 1, Epoch: 1},
		{Name: "infer", Start: 140, End: 190, Parent: 1, Epoch: 1},
		{Name: "encode", Start: 200, End: 220, Parent: -1, Epoch: 1},
		{Name: "process", Start: 300, End: 400, Parent: -1, Epoch: 2},
		// A child that overruns its parent counts only where it overlaps.
		{Name: "infer", Start: 350, End: 450, Parent: 5, Epoch: 2},
	}
	total, self := layerTimes(spans, 100)
	ns := func(v float64) float64 { return math.Round(v * 1e9) }
	if got := ns(total["process"]); got != 200 {
		t.Errorf("process total = %g ns, want 200", got)
	}
	if got := ns(self["process"]); got != 30+50 {
		t.Errorf("process self = %g ns, want (100-20-50) + (100-50) = 80", got)
	}
	if got := ns(self["infer"]); got != 50+100 {
		t.Errorf("infer self = %g ns, want 150", got)
	}
	if _, ok := self["setup"]; ok {
		t.Error("a span that starts before the timed section must stay out")
	}
}

func TestLedgerRowsSumToWall(t *testing.T) {
	spans := []span{
		{Name: "decode", Start: 0, End: 10e6, Parent: -1},
		{Name: "process", Start: 10e6, End: 90e6, Parent: -1},
		{Name: "infer", Start: 20e6, End: 70e6, Parent: 1},
		{Name: "encode", Start: 90e6, End: 97e6, Parent: -1},
	}
	const wall = 0.100
	rows, unaccounted := ledger(spans, 0, wall)
	var sum, shares float64
	for _, r := range rows {
		sum += r.Seconds
		shares += r.Share
	}
	if math.Abs(sum-wall) > 1e-12 || math.Abs(shares-1) > 1e-12 {
		t.Errorf("ledger rows sum to %g s (shares %g), want the wall %g s", sum, shares, wall)
	}
	if math.Abs(unaccounted-0.03) > 1e-12 {
		t.Errorf("unaccounted share = %g, want 0.03", unaccounted)
	}
	if rows[0].Layer != "infer" {
		t.Errorf("largest row is %s, want infer (50 ms self time)", rows[0].Layer)
	}
}
