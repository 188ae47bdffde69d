package main

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"spire/internal/experiments"
)

// fixture is a two-table report: an untimed accuracy table and a table
// with one timed column.
func fixture() *report {
	return &report{Quick: true, Experiments: []experiment{{Tables: []experiments.Table{
		{
			ID:      "fig9d",
			Columns: []string{"location", "containment"},
			Rows: []experiments.Row{
				{Label: "0.85", Values: []float64{0.051, 0.032}},
				{Label: "1.00", Values: []float64{0.012, 0.004}},
			},
		},
		{
			ID:      "ablation-partial",
			Columns: []string{"loc err", "infer s/epoch"},
			Rows:    []experiments.Row{{Label: "complete-only", Values: []float64{0.07, 4.5e-5}}},
			Timed:   []string{"infer s/epoch"},
		},
	}}}}
}

func runDiff(t *testing.T, base, cur *report) (string, error) {
	t.Helper()
	var out strings.Builder
	err := diff(&out, base, cur)
	return out.String(), err
}

func TestIdenticalReportsPass(t *testing.T) {
	out, err := runDiff(t, fixture(), fixture())
	if err != nil {
		t.Fatalf("identical reports: %v\n%s", err, out)
	}
	if want := "5 equal, 0 mismatched, 0 missing, 0 new, 1 timed"; !strings.Contains(out, want) {
		t.Fatalf("summary lacks %q:\n%s", want, out)
	}
}

func TestOneULPDriftFails(t *testing.T) {
	cur := fixture()
	v := &cur.Experiments[0].Tables[0].Rows[0].Values[1]
	*v = math.Nextafter(*v, 1)
	out, err := runDiff(t, fixture(), cur)
	if err == nil {
		t.Fatalf("a one-ULP drift must fail:\n%s", out)
	}
	if want := `FAIL fig9d "0.85" "containment"`; !strings.Contains(out, want) {
		t.Fatalf("output does not name the cell (%q):\n%s", want, out)
	}
}

func TestTimedCellNeverGates(t *testing.T) {
	// Old reports mark nothing timed: the current report's marks apply
	// to the baseline side too.
	base := fixture()
	base.Experiments[0].Tables[1].Timed = nil
	cur := fixture()
	cur.Experiments[0].Tables[1].Rows[0].Values[1] *= 10
	out, err := runDiff(t, base, cur)
	if err != nil {
		t.Fatalf("a timed cell 10x slower must pass: %v\n%s", err, out)
	}
	if want := `info ablation-partial "complete-only" "infer s/epoch"`; !strings.Contains(out, want) {
		t.Fatalf("timed cell not reported as info (%q):\n%s", want, out)
	}
}

func TestTableOnlyInBaselineFails(t *testing.T) {
	cur := fixture()
	cur.Experiments[0].Tables = cur.Experiments[0].Tables[:1]
	out, err := runDiff(t, fixture(), cur)
	if err == nil {
		t.Fatalf("a table missing from the current report must fail:\n%s", out)
	}
	// Even its timed cells: a dropped table must not pass silently.
	for _, want := range []string{
		`FAIL ablation-partial "complete-only" "loc err": missing`,
		`FAIL ablation-partial "complete-only" "infer s/epoch": missing`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

func TestCellOnlyInCurrentIsNew(t *testing.T) {
	cur := fixture()
	tbl := &cur.Experiments[0].Tables[0]
	tbl.Rows = append(tbl.Rows, experiments.Row{Label: "0.70", Values: []float64{0.09, 0.05}})
	out, err := runDiff(t, fixture(), cur)
	if err != nil {
		t.Fatalf("new cells must pass: %v\n%s", err, out)
	}
	if want := `new  fig9d "0.70" "location": 0.09`; !strings.Contains(out, want) {
		t.Fatalf("output lacks %q:\n%s", want, out)
	}
}

func TestScaleMismatchFails(t *testing.T) {
	cur := fixture()
	cur.Quick = false
	if _, err := runDiff(t, fixture(), cur); err == nil || !strings.Contains(err.Error(), "scale mismatch") {
		t.Fatalf("quick vs full must fail with a scale mismatch, got %v", err)
	}
}

func TestOutputIsSorted(t *testing.T) {
	cur := fixture()
	for i := range cur.Experiments[0].Tables {
		for _, r := range cur.Experiments[0].Tables[i].Rows {
			for j := range r.Values {
				r.Values[j] += 1
			}
		}
	}
	first, _ := runDiff(t, fixture(), cur)
	for i := 0; i < 5; i++ {
		if again, _ := runDiff(t, fixture(), cur); again != first {
			t.Fatalf("output order varies between runs:\n%s\nvs\n%s", first, again)
		}
	}
	lines := strings.Split(strings.TrimSpace(first), "\n")
	if !strings.HasPrefix(lines[0], `info ablation-partial`) || !strings.HasPrefix(lines[1], `FAIL ablation-partial`) {
		t.Fatalf("cells not in (table, row, column) order:\n%s", first)
	}
}

// TestCommittedReportsLoad pins that the trajectory points committed at
// the repository root stay readable, including the reports written before
// tables declared their timed columns.
func TestCommittedReportsLoad(t *testing.T) {
	for _, name := range []string{"BENCH_baseline.json", "BENCH_pr20.json", "BENCH_pr34.json"} {
		r, err := load(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		cells, err := r.cells(map[[2]string]bool{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(cells) < 175 {
			t.Errorf("%s: %d cells, want at least the 175 untimed reproduction cells", name, len(cells))
		}
	}
}
