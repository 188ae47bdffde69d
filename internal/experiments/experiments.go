// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VI). Each experiment is a function returning a
// Table whose rows/series mirror what the paper plots; cmd/spirebench and
// the repository's benchmarks print them.
//
// Absolute numbers depend on the host and on this reproduction's
// simulator, but the shapes the paper reports — which technique wins,
// where parameter sweet spots and crossovers lie — are what these drivers
// are written to reproduce. EXPERIMENTS.md records paper-vs-measured for
// each artifact.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Options tunes experiment scale. The full configurations replicate the
// paper's workloads (multi-hour traces); Quick shrinks durations and sweep
// grids so the whole suite runs in minutes, preserving the shapes.
type Options struct {
	Quick bool

	// Workers caps how many sweep cells run concurrently; 0 means
	// runtime.NumCPU(). Results are collected into pre-sized slots, so
	// rendered tables are byte-identical for any worker count. Drivers
	// whose tables have Timed columns ignore it and run their cells one
	// at a time.
	Workers int
}

// Table is a printable experiment result: one labelled row per sweep
// point, one column per series. The JSON form is the table's entry in a
// spirebench -json report.
type Table struct {
	ID        string   `json:"id"` // e.g. "fig9a"
	Title     string   `json:"title"`
	RowHeader string   `json:"-"`
	Columns   []string `json:"columns"`
	Rows      []Row    `json:"rows"`
	Notes     []string `json:"-"`

	// Timed names the wall-clock columns. Every other column is a
	// deterministic function of the fixed seeds and must reproduce
	// exactly; timed columns vary from run to run and host to host.
	Timed []string `json:"timed,omitempty"`
}

// Row is one sweep point.
type Row struct {
	Label  string    `json:"label"`
	Values []float64 `json:"values"`
}

// AddRow appends a row.
func (t *Table) AddRow(label string, values ...float64) {
	t.Rows = append(t.Rows, Row{Label: label, Values: values})
}

// WriteTo renders the table as aligned text.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	width := len(t.RowHeader)
	for _, r := range t.Rows {
		if len(r.Label) > width {
			width = len(r.Label)
		}
	}
	fmt.Fprintf(&b, "%-*s", width, t.RowHeader)
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "  %12s", c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", width, r.Label)
		for _, v := range r.Values {
			fmt.Fprintf(&b, "  %12.4f", v)
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	if _, err := t.WriteTo(&b); err != nil {
		return err.Error()
	}
	return b.String()
}

// Cell returns the value at (rowLabel, column), for tests and summaries.
func (t *Table) Cell(rowLabel, column string) (float64, bool) {
	ci := -1
	for i, c := range t.Columns {
		if c == column {
			ci = i
			break
		}
	}
	if ci < 0 {
		return 0, false
	}
	for _, r := range t.Rows {
		if r.Label == rowLabel && ci < len(r.Values) {
			return r.Values[ci], true
		}
	}
	return 0, false
}

// Registry maps experiment IDs to their drivers, for cmd/spirebench.
type Driver func(Options) ([]*Table, error)

// Registry returns all experiment drivers keyed by artifact ID.
func Registry() map[string]Driver {
	one := func(f func(Options) (*Table, error)) Driver {
		return func(o Options) ([]*Table, error) {
			t, err := f(o)
			if err != nil {
				return nil, err
			}
			return []*Table{t}, nil
		}
	}
	return map[string]Driver{
		"fig9a":  one(Fig9a),
		"fig9b":  one(Fig9b),
		"fig9c":  one(Fig9c),
		"fig9d":  one(Fig9d),
		"fig9e":  one(Fig9e),
		"fig9f":  one(Fig9f),
		"table3": one(Table3),
		"fig10":  one(Fig10),
		"fig11a": one(Fig11a),
		"fig11b": one(Fig11b),
		"fig11c": one(Fig11c),
		"fig11": func(o Options) ([]*Table, error) {
			a, b, c, err := Fig11(o)
			if err != nil {
				return nil, err
			}
			return []*Table{a, b, c}, nil
		},
		"cep":              one(CEPQuality),
		"ablation-partial": one(AblationPartialInference),
		"ablation-prune":   one(AblationPruneThreshold),
	}
}

// IDs returns the registry keys in a stable order.
func IDs() []string {
	return []string{
		"fig9a", "fig9b", "fig9c", "fig9d", "fig9e", "fig9f",
		"table3", "fig10", "fig11", "fig11a", "fig11b", "fig11c",
		"cep", "ablation-partial", "ablation-prune",
	}
}
