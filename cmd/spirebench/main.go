// Command spirebench regenerates the tables and figures of the paper's
// evaluation (Section VI).
//
//	spirebench -list
//	spirebench -expt fig9d -quick
//	spirebench -expt all -j 8 > results.txt
//	spirebench -expt all -quick -json bench.json
//
// Full runs replicate the paper's multi-hour workloads and can take a
// long time; -quick shrinks every workload while preserving the shapes.
// Independent sweep cells run concurrently (-j, default all CPUs); table
// output is identical for any worker count. Every column is a
// deterministic function of the fixed seeds except the wall-clock columns
// a table declares timed (Table III, the partial-inference ablation's
// cost and infercomp's pass times); those cells always run one at a time.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"spire/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "spirebench:", err)
		os.Exit(1)
	}
}

// benchReport is the machine-readable run summary written by -json: every
// table, so cmd/spirebenchdiff can compare a run against a committed
// BENCH_*.json cell by cell.
type benchReport struct {
	Quick        bool              `json:"quick"`
	Workers      int               `json:"workers"`
	GoMaxProcs   int               `json:"gomaxprocs"`
	TotalSeconds float64           `json:"total_seconds"`
	Experiments  []benchExperiment `json:"experiments"`
}

type benchExperiment struct {
	ID      string               `json:"id"`
	Seconds float64              `json:"seconds"`
	Tables  []*experiments.Table `json:"tables"`
}

func run() error {
	var (
		expt     = flag.String("expt", "all", "experiment id, comma-separated list, or 'all'")
		quick    = flag.Bool("quick", false, "shrunken workloads (minutes instead of hours)")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		workers  = flag.Int("j", runtime.NumCPU(), "max concurrently running sweep cells")
		jsonPath = flag.String("json", "", "also write results as JSON to this path")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return nil
	}

	reg := experiments.Registry()
	var ids []string
	if *expt == "all" {
		// fig11 covers fig11a/b/c in one sweep; skip the single-figure
		// aliases to avoid rerunning it three times.
		for _, id := range experiments.IDs() {
			switch id {
			case "fig11a", "fig11b", "fig11c":
				continue
			}
			ids = append(ids, id)
		}
	} else {
		for _, id := range strings.Split(*expt, ",") {
			id = strings.TrimSpace(id)
			if _, ok := reg[id]; !ok {
				return fmt.Errorf("unknown experiment %q (try -list)", id)
			}
			ids = append(ids, id)
		}
	}

	opts := experiments.Options{Quick: *quick, Workers: *workers}
	report := benchReport{Quick: *quick, Workers: *workers, GoMaxProcs: runtime.GOMAXPROCS(0)}
	suiteStart := time.Now()
	for _, id := range ids {
		start := time.Now()
		tables, err := reg[id](opts)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		elapsed := time.Since(start)
		for _, t := range tables {
			if _, err := t.WriteTo(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
		}
		report.Experiments = append(report.Experiments, benchExperiment{ID: id, Seconds: elapsed.Seconds(), Tables: tables})
		fmt.Fprintf(os.Stderr, "spirebench: %s done in %v\n", id, elapsed.Round(time.Millisecond))
	}
	report.TotalSeconds = time.Since(suiteStart).Seconds()

	if *jsonPath != "" {
		buf, err := json.MarshalIndent(&report, "", "  ")
		if err != nil {
			return err
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*jsonPath, buf, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "spirebench: wrote %s\n", *jsonPath)
	}
	return nil
}
