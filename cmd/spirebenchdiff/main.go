// Command spirebenchdiff compares two spirebench -json reports cell by
// cell and fails when the current report does not reproduce the baseline
// exactly. CI runs it against the committed baseline report
// (BENCH_pr34.json; see the Makefile's bench-check):
//
//	spirebench -quick -expt all -json BENCH_new.json
//	spirebenchdiff -baseline BENCH_pr34.json -current BENCH_new.json
//
// A cell is keyed by (table ID, row label, column name). Every untimed
// cell is a deterministic function of the experiments' fixed seeds, so it
// must be bit-equal (float64 ==) to the baseline; a single-ULP drift
// fails. Columns either report declares timed are wall clock: they print
// as info and never gate — timing claims come from the end-to-end
// benchmark (benchmark/), not from here. A baseline cell missing from the
// current report fails; a cell only in the current report prints as new.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"spire/internal/experiments"
)

// report is the part of a spirebench -json report the comparison reads.
type report struct {
	Quick       bool         `json:"quick"`
	Experiments []experiment `json:"experiments"`
}

type experiment struct {
	Tables []experiments.Table `json:"tables"`
}

// cellKey addresses one table cell.
type cellKey struct{ table, row, col string }

func (k cellKey) String() string { return fmt.Sprintf("%s %q %q", k.table, k.row, k.col) }

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "spirebenchdiff:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		basePath = flag.String("baseline", "BENCH_pr34.json", "baseline spirebench -json report")
		curPath  = flag.String("current", "", "report to compare against the baseline")
	)
	flag.Parse()
	if *curPath == "" {
		return fmt.Errorf("-current is required")
	}
	base, err := load(*basePath)
	if err != nil {
		return err
	}
	cur, err := load(*curPath)
	if err != nil {
		return err
	}
	return diff(os.Stdout, base, cur)
}

func load(path string) (*report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Experiments) == 0 {
		return nil, fmt.Errorf("%s: no experiments (written by spirebench -json)", path)
	}
	return &r, nil
}

// cells flattens a report into its cells and adds its timed (table,
// column) pairs to timed. A repeated cell is an error: it would make the
// comparison ambiguous.
func (r *report) cells(timed map[[2]string]bool) (map[cellKey]float64, error) {
	m := make(map[cellKey]float64)
	for _, e := range r.Experiments {
		for _, t := range e.Tables {
			for _, c := range t.Timed {
				timed[[2]string{t.ID, c}] = true
			}
			for _, row := range t.Rows {
				for i, v := range row.Values {
					if i >= len(t.Columns) {
						return nil, fmt.Errorf("table %s row %q has more values than columns", t.ID, row.Label)
					}
					k := cellKey{t.ID, row.Label, t.Columns[i]}
					if _, dup := m[k]; dup {
						return nil, fmt.Errorf("cell %v appears twice", k)
					}
					m[k] = v
				}
			}
		}
	}
	return m, nil
}

// diff writes one line per cell that is not an exact match, in sorted key
// order, then a summary, and returns an error when any cell fails.
func diff(w io.Writer, base, cur *report) error {
	if base.Quick != cur.Quick {
		return fmt.Errorf("scale mismatch: baseline quick=%v, current quick=%v", base.Quick, cur.Quick)
	}
	// Old reports mark nothing timed; the current report's marks apply.
	timed := make(map[[2]string]bool)
	bc, err := base.cells(timed)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	cc, err := cur.cells(timed)
	if err != nil {
		return fmt.Errorf("current: %w", err)
	}
	keys := make([]cellKey, 0, len(bc)+len(cc))
	for k := range bc {
		keys = append(keys, k)
	}
	for k := range cc {
		if _, ok := bc[k]; !ok {
			keys = append(keys, k)
		}
	}
	slices.SortFunc(keys, func(a, b cellKey) int {
		return cmp.Or(cmp.Compare(a.table, b.table), cmp.Compare(a.row, b.row), cmp.Compare(a.col, b.col))
	})

	var equal, differ, missing, added, info int
	for _, k := range keys {
		b, inBase := bc[k]
		c, inCur := cc[k]
		switch {
		case !inCur:
			fmt.Fprintf(w, "FAIL %v: missing from the current report (baseline %v)\n", k, b)
			missing++
		case !inBase:
			fmt.Fprintf(w, "new  %v: %v\n", k, c)
			added++
		case timed[[2]string{k.table, k.col}]:
			fmt.Fprintf(w, "info %v: %v -> %v (timed)\n", k, b, c)
			info++
		case b != c:
			fmt.Fprintf(w, "FAIL %v: %v -> %v\n", k, b, c)
			differ++
		default:
			equal++
		}
	}
	fmt.Fprintf(w, "%d equal, %d mismatched, %d missing, %d new, %d timed\n", equal, differ, missing, added, info)
	if differ+missing > 0 {
		return fmt.Errorf("%d cell(s) do not reproduce the baseline", differ+missing)
	}
	return nil
}
