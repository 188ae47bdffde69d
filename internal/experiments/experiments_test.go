package experiments

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		ID:        "t",
		Title:     "demo",
		RowHeader: "x",
		Columns:   []string{"a", "b"},
		Notes:     []string{"hello"},
	}
	tbl.AddRow("r1", 1, 2)
	s := tbl.String()
	for _, want := range []string{"demo", "r1", "hello", "1.0000"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
	if v, ok := tbl.Cell("r1", "b"); !ok || v != 2 {
		t.Errorf("Cell = %v,%v; want 2,true", v, ok)
	}
	if _, ok := tbl.Cell("r1", "zzz"); ok {
		t.Error("Cell with unknown column must report !ok")
	}
	if _, ok := tbl.Cell("zzz", "a"); ok {
		t.Error("Cell with unknown row must report !ok")
	}
}

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	for _, id := range IDs() {
		if _, ok := reg[id]; !ok {
			t.Errorf("registry missing %q", id)
		}
	}
	if len(reg) != len(IDs()) {
		t.Errorf("registry has %d entries, IDs lists %d", len(reg), len(IDs()))
	}
	// Wall-clock claims come from the end-to-end benchmark's per-layer
	// metrics; the duplicate timing drivers must not come back.
	for _, id := range []string{"bench-ingest", "bench-zones", "cep-perf"} {
		if _, ok := reg[id]; ok {
			t.Errorf("registry still has the removed timing driver %q", id)
		}
	}
}

// TestFig9dShape runs the read-rate sensitivity experiment at quick scale
// and asserts the paper's qualitative findings.
func TestFig9dShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	tbl, err := Fig9d(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tbl.String())
	hi, _ := tbl.Cell("1.00", "location")
	lo, _ := tbl.Cell("0.50", "location")
	if hi >= lo {
		t.Errorf("location error must grow as read rate drops: %.4f@1.0 vs %.4f@0.5", hi, lo)
	}
	contHi, _ := tbl.Cell("0.85", "containment")
	if contHi > 0.10 {
		t.Errorf("containment error at 0.85 = %.4f, paper reports ≤~10%%", contHi)
	}
	locHi, _ := tbl.Cell("0.85", "location")
	if locHi > 0.10 {
		t.Errorf("location error at 0.85 = %.4f, paper reports ≤~10%%", locHi)
	}
	contLo, _ := tbl.Cell("0.50", "containment")
	if contLo <= contHi {
		t.Errorf("containment error must degrade at low read rates: %.4f@0.5 vs %.4f@0.85", contLo, contHi)
	}
}

// TestFig9aShape asserts the β extremes behave as the paper reports.
func TestFig9aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	tbl, err := Fig9a(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tbl.String())
	noisy := tbl.Columns[0] // fastest shelf readers = most co-location noise
	low, _ := tbl.Cell("0.00", noisy)
	high, _ := tbl.Cell("1.00", noisy)
	if high <= low {
		t.Errorf("β=1 (%v) must degrade containment vs β=0 (%v) under noisy shelf readers", high, low)
	}
	adaptive, _ := tbl.Cell("adaptive", noisy)
	if adaptive >= high {
		t.Errorf("adaptive β (%v) must beat the worst fixed setting (%v)", adaptive, high)
	}
}

// TestFig11Shape asserts the headline comparisons of Expts 7-8.
func TestFig11Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	a, b, c, err := Fig11(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + a.String() + "\n" + b.String() + "\n" + c.String())
	for _, rate := range []string{"0.70", "0.85", "1.00"} {
		sp, _ := a.Cell(rate, "SPIRE")
		sm, _ := a.Cell(rate, "SMURF")
		if sp <= sm {
			t.Errorf("rate %s: SPIRE F (%v) must beat SMURF (%v)", rate, sp, sm)
		}
	}
	for _, rate := range []string{"0.85", "1.00"} {
		l1, _ := b.Cell(rate, "SPIRE L1")
		l2, _ := b.Cell(rate, "SPIRE L2")
		if l2 >= l1 {
			t.Errorf("rate %s: level-2 ratio (%v) must beat level-1 (%v) at high read rates", rate, l2, l1)
		}
		if l1 >= 0.5 {
			t.Errorf("rate %s: level-1 ratio %v implausibly high", rate, l1)
		}
		full1, _ := c.Cell(rate, "L1 full")
		full2, _ := c.Cell(rate, "L2 full")
		if full1 >= 1 || full2 >= 1 {
			t.Errorf("rate %s: compression must undercut the raw stream (%v, %v)", rate, full1, full2)
		}
		if full2 >= full1 {
			t.Errorf("rate %s: L2 full (%v) must beat L1 full (%v)", rate, full2, full1)
		}
	}
}

// TestTable3AndFig10Shape runs the efficiency experiments at quick scale.
func TestTable3AndFig10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	t3, err := Table3(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + t3.String())
	if len(t3.Rows) < 2 {
		t.Fatal("table 3 must have multiple sizes")
	}
	for _, r := range t3.Rows {
		if r.Values[0] <= 0 || r.Values[1] <= 0 {
			t.Errorf("size %s: non-positive costs %v", r.Label, r.Values)
		}
		if r.Values[2] >= 1.0 {
			t.Errorf("size %s: epoch cost %v exceeds the 1 s epoch", r.Label, r.Values[2])
		}
		if r.Values[1] <= r.Values[0] {
			t.Logf("size %s: inference (%v) not dominating update (%v) — informational", r.Label, r.Values[1], r.Values[0])
		}
	}
	first := t3.Rows[0].Values[2]
	last := t3.Rows[len(t3.Rows)-1].Values[2]
	if last <= first {
		t.Errorf("total cost must grow with node count: %v → %v", first, last)
	}

	f10, err := Fig10(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + f10.String())
	for _, r := range f10.Rows {
		unpruned, pruned := r.Values[0], r.Values[len(f10.Columns)-3]
		if pruned > unpruned {
			t.Errorf("size %s: pruning must not increase memory (%v vs %v)", r.Label, pruned, unpruned)
		}
	}
}

// TestCEPQualityFloors runs the subscription-quality experiment at quick
// scale and asserts detector F1 floors against ground truth — the
// acceptance gate for the complex-event engine. The floors carry margin
// below the measured quick-scale scores (theft 0.97, misroute ≥ 0.96,
// cold 1.00 across all dropout rows), so they fail on real regressions,
// not run-to-run noise.
func TestCEPQualityFloors(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	tbl, err := CEPQuality(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tbl.String())
	floors := map[string]float64{"theft": 0.85, "misroute": 0.85, "cold": 0.90}
	for _, d := range cepDropouts() {
		for det, floor := range floors {
			row := d.label + " " + det
			f1, ok := tbl.Cell(row, "F1")
			if !ok {
				t.Errorf("missing row %q", row)
				continue
			}
			if f1 < floor {
				t.Errorf("%s: F1 = %.4f below floor %.2f", row, f1, floor)
			}
		}
	}
	// On the clean trace every injected anomaly must be caught: the
	// detectors' recall story collapses silently otherwise, even while
	// F1 limps over the floor on precision.
	for det := range floors {
		r, ok := tbl.Cell("none "+det, "recall")
		if !ok || r < 0.95 {
			t.Errorf("none %s: recall = %.4f, want ≥ 0.95", det, r)
		}
	}
	// Detection delay must stay within the detector window plus scan
	// lag — a delay beyond that means matches complete on the wrong
	// epoch arithmetic.
	for det, bound := range map[string]float64{"theft": cepTheftWindow + 20, "misroute": cepMisrouteWindow, "cold": cepColdWindow + 20} {
		delay, ok := tbl.Cell("none "+det, "delay")
		if !ok || delay <= 0 || delay > bound {
			t.Errorf("none %s: delay = %.2f, want in (0, %.0f]", det, delay, bound)
		}
	}
}

// TestAblations runs the two design-choice ablations at quick scale.
func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	ap, err := AblationPartialInference(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + ap.String())
	sched, _ := ap.Cell("schedule l=1", "infer s/epoch")
	complete, _ := ap.Cell("complete-only", "infer s/epoch")
	if sched >= complete {
		t.Errorf("the partial schedule (%v s/epoch) must cost less than complete-only (%v)", sched, complete)
	}

	pr, err := AblationPruneThreshold(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + pr.String())
	c0, _ := pr.Cell("0.00", "cont err")
	c75, _ := pr.Cell("0.75", "cont err")
	if c75 < c0 {
		t.Logf("pruning at 0.75 did not hurt containment here (%v vs %v) — informational", c75, c0)
	}
}
