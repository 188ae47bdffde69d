package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// runChild runs one workload in a fresh process of this same binary, the
// way the acceptance driver does, and parses its summary line. A fresh
// process per run keeps one run's heap and warmed caches out of the next.
func runChild(name string, seed int64, seconds float64, traced int, outDir string) (summary, error) {
	var s summary
	exe, err := os.Executable()
	if err != nil {
		return s, err
	}
	cmd := exec.Command(exe,
		"-workload", name,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(traced),
		"-out", outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	os.Stdout.Write(out) // relayed for the reader; the summary is parsed below either way
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if jsonErr := json.Unmarshal([]byte(lines[len(lines)-1]), &s); jsonErr != nil {
		if err != nil {
			return s, err
		}
		return s, fmt.Errorf("no summary line: %w", jsonErr)
	}
	return s, nil // a child that printed a summary but failed its checks is reported through s.Correct
}

// aaCell is one workload × metric comparison of the A runs with the B
// runs.
type aaCell struct {
	metric metricDef
	a, b   []float64
}

// shift is |median A − median B| as a share of median A.
func (c aaCell) shift() float64 {
	_, ma, _ := quartiles(c.a)
	_, mb, _ := quartiles(c.b)
	if ma == 0 {
		return 0
	}
	return math.Abs(ma-mb) / math.Abs(ma)
}

// baselineEntry is one workload × metric of the committed baseline.
type baselineEntry struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Unit   string  `json:"unit"`
}

// runAA runs n sets labelled A and n labelled B of the same code,
// alternating, the i-th set of either label on seed+i — the acceptance
// driver's comparison: every run of a label on another seed, two labels
// over the same seeds. It reports per workload and end-to-end metric both
// medians, the quartiles, each label's spread and how far the medians sit
// apart. The benchmark can only resolve a change larger than that
// distance, so a cell whose medians differ by more than half its metric's
// bound fails the comparison, as does a timing or count whose spread
// exceeds the bound (set-up time's spread is reported, not judged: the
// driver does the same). It also writes the baseline: the medians over
// all 2n runs plus one traced run's per-layer metrics per workload.
func runAA(n int, seed int64, seconds float64, outDir, resDir string) error {
	if err := os.MkdirAll(resDir, 0o755); err != nil {
		return err
	}
	ws := workloads()
	cells := make(map[string]*aaCell)
	key := func(w, m string) string { return w + "/" + m }
	for _, w := range ws {
		for _, m := range endToEnd {
			cells[key(w.Name, m.Name)] = &aaCell{metric: m}
		}
	}
	start := time.Now()
	for set := 0; set < 2*n; set++ {
		label := "A"
		if set%2 == 1 {
			label = "B"
		}
		for _, w := range ws {
			fmt.Fprintf(os.Stderr, "== set %d/%d (%s): %s\n", set+1, 2*n, label, w.Name)
			s, err := runChild(w.Name, seed+int64(set/2), seconds, 0, outDir)
			if err != nil {
				return fmt.Errorf("set %d %s: %w", set+1, w.Name, err)
			}
			if !s.Correct {
				return fmt.Errorf("set %d %s: %d of %d operations failed", set+1, w.Name, s.Failed, s.Attempted)
			}
			for _, m := range endToEnd {
				c := cells[key(w.Name, m.Name)]
				if label == "A" {
					c.a = append(c.a, s.Metrics[m.Name].Value)
				} else {
					c.b = append(c.b, s.Metrics[m.Name].Value)
				}
			}
		}
	}

	baseline := make(map[string]map[string]baselineEntry)
	for _, w := range ws {
		baseline[w.Name] = make(map[string]baselineEntry)
		for _, m := range endToEnd {
			c := cells[key(w.Name, m.Name)]
			q1, q2, q3 := quartiles(append(append([]float64(nil), c.a...), c.b...))
			baseline[w.Name][m.Name] = baselineEntry{Median: q2, Q1: q1, Q3: q3, Unit: m.Unit}
		}
		fmt.Fprintf(os.Stderr, "== traced: %s\n", w.Name)
		s, err := runChild(w.Name, seed, seconds, 1, outDir)
		if err != nil {
			return fmt.Errorf("traced %s: %w", w.Name, err)
		}
		if !s.Correct {
			return fmt.Errorf("traced %s: %d of %d operations failed", w.Name, s.Failed, s.Attempted)
		}
		for name, v := range s.Metrics {
			baseline[w.Name][name] = baselineEntry{Median: v.Value, Q1: v.Value, Q3: v.Value, Unit: v.Unit}
		}
	}

	var md bytes.Buffer
	date := time.Now().Format("2006-01-02")
	fmt.Fprintf(&md, "# A/A comparison, %s\n\n", date)
	fmt.Fprintf(&md, "%d sets labelled A and %d labelled B of the same code, alternating, seeds %d–%d under either label, `-seconds %g` (%d passes), %.0f s in all.\n",
		n, n, seed, seed+int64(n)-1, seconds, passesFor(seconds), time.Since(start).Seconds())
	fmt.Fprintf(&md, "Spread is the inter-quartile distance as a share of the median. A cell fails (FAIL) when the two medians sit further apart than half the metric's bound, and is too noisy to judge (NOISY) when either spread exceeds the bound; `setup_s` is exempt from the second test.\n\n")
	fmt.Fprintf(&md, "| workload | metric | unit | A median [q1, q3] | B median [q1, q3] | spread A | spread B | \\|A−B\\| ÷ A | bound | |\n")
	fmt.Fprintf(&md, "|---|---|---|---|---|---|---|---|---|---|\n")
	bad := 0
	for _, w := range ws {
		for _, m := range endToEnd {
			c := cells[key(w.Name, m.Name)]
			a1, a2, a3 := quartiles(c.a)
			b1, b2, b3 := quartiles(c.b)
			verdict := "ok"
			switch {
			case c.shift() > m.Bound/2:
				verdict = "FAIL"
				bad++
			case m.Name != "setup_s" && max(spread(c.a), spread(c.b)) > m.Bound:
				verdict = "NOISY"
				bad++
			}
			fmt.Fprintf(&md, "| %s | %s | %s | %.5g [%.5g, %.5g] | %.5g [%.5g, %.5g] | %.2f %% | %.2f %% | %.2f %% | %.1f %% | %s |\n",
				w.Name, m.Name, m.Unit, a2, a1, a3, b2, b1, b3, spread(c.a)*100, spread(c.b)*100, c.shift()*100, m.Bound*100, verdict)
		}
	}
	fmt.Print(md.String())
	if err := os.WriteFile(filepath.Join(resDir, "aa-"+date+".md"), md.Bytes(), 0o644); err != nil {
		return err
	}
	bl, err := json.MarshalIndent(struct {
		Date      string                              `json:"date"`
		Seed      int64                               `json:"seed"`
		Seconds   float64                             `json:"seconds"`
		Runs      int                                 `json:"runs_per_workload"`
		Workloads map[string]map[string]baselineEntry `json:"workloads"`
	}{date, seed, seconds, 2 * n, baseline}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(resDir, "baseline.json"), append(bl, '\n'), 0o644); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d cells have medians further apart than half their bound or a spread beyond it", bad, len(cells))
	}
	return nil
}
