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
// output is identical for any worker count.
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

// benchReport is the machine-readable run summary written by -json, so
// headline metrics can accumulate across revisions (BENCH_*.json).
type benchReport struct {
	Quick        bool               `json:"quick"`
	Workers      int                `json:"workers"`
	GoMaxProcs   int                `json:"gomaxprocs"`
	TotalSeconds float64            `json:"total_seconds"`
	Experiments  []benchExperiment  `json:"experiments"`
	Headline     map[string]float64 `json:"headline"`
}

type benchExperiment struct {
	ID      string       `json:"id"`
	Seconds float64      `json:"seconds"`
	Tables  []benchTable `json:"tables"`
}

type benchTable struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    []benchRow `json:"rows"`
}

type benchRow struct {
	Label  string    `json:"label"`
	Values []float64 `json:"values"`
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
		be := benchExperiment{ID: id, Seconds: elapsed.Seconds()}
		for _, t := range tables {
			if _, err := t.WriteTo(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
			bt := benchTable{ID: t.ID, Title: t.Title, Columns: t.Columns}
			for _, r := range t.Rows {
				bt.Rows = append(bt.Rows, benchRow{Label: r.Label, Values: r.Values})
			}
			be.Tables = append(be.Tables, bt)
		}
		report.Experiments = append(report.Experiments, be)
		fmt.Fprintf(os.Stderr, "spirebench: %s done in %v\n", id, elapsed.Round(time.Millisecond))
	}
	report.TotalSeconds = time.Since(suiteStart).Seconds()

	if *jsonPath != "" {
		report.Headline = headline(report.Experiments)
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

// headline extracts the cross-revision trackable metrics: Table III
// seconds-per-epoch at the largest size, Fig. 11 compression ratios and
// F-measures at the sweep's highest read rate, and total wall clock.
func headline(exps []benchExperiment) map[string]float64 {
	h := make(map[string]float64)
	cell := func(t benchTable, label, column string) (float64, bool) {
		for ci, c := range t.Columns {
			if c != column {
				continue
			}
			for _, r := range t.Rows {
				if r.Label == label && ci < len(r.Values) {
					return r.Values[ci], true
				}
			}
		}
		return 0, false
	}
	for _, e := range exps {
		for _, t := range e.Tables {
			if len(t.Rows) == 0 {
				continue
			}
			last := t.Rows[len(t.Rows)-1]
			switch t.ID {
			case "table3":
				if len(last.Values) == 3 {
					h["table3_s_per_epoch_max"] = last.Values[2]
					h["table3_update_s_max"] = last.Values[0]
					h["table3_inference_s_max"] = last.Values[1]
				}
			case "bench-ingest":
				// Gate seconds per million readings (larger is worse) at
				// the largest population. The key keeps the name the
				// committed baseline recorded for this path.
				if len(last.Values) == 2 {
					h["ingest_batch1_s_per_mread"] = last.Values[1]
				}
			case "bench-zones":
				// Gate the single-substrate cost (serial); the federated
				// rows time genuinely parallel work, so their throughput
				// and speedup are recorded but depend on idle cores.
				for _, r := range t.Rows {
					if len(r.Values) != 4 {
						continue
					}
					if r.Label == "single" {
						h["zones_single_s_per_mread"] = r.Values[1]
					}
				}
				if len(last.Values) == 4 {
					h["zones_par_speedup_max"] = last.Values[2]
					h["zones_s_per_mread_max"] = last.Values[1]
				}
			case "zones-merge":
				if v, ok := cell(t, "MergerIngest", "s/Mevent"); ok {
					h["zones_merge_s_per_mevent"] = v
				}
				if v, ok := cell(t, "MergerIngest+telemetry", "s/Mevent"); ok {
					h["zones_merge_instr_s_per_mevent"] = v
				}
			case "zones-worker-feed":
				// Gate the batch feed's per-zone ingest cost at the
				// largest zone count — the quantity the columnar feed
				// keeps flat as the deployment grows.
				if len(last.Values) == 2 {
					h["zones_worker_feed_s_per_mevent"] = last.Values[0]
				}
			case "ingest-stages":
				for _, r := range t.Rows {
					if len(r.Values) != 2 {
						continue
					}
					switch r.Label {
					case "BenchmarkIngestDecode":
						h["ingest_decode_s_per_mread"] = r.Values[1]
					case "BenchmarkIngestDedup":
						h["ingest_dedup_s_per_mread"] = r.Values[1]
					case "BenchmarkIngestUpdate":
						h["ingest_update_s_per_mread"] = r.Values[1]
					}
				}
			case "cep":
				// Detector quality across the dropout sweep: F1 on the
				// clean trace and at the heaviest dropout, per detector.
				// Quality keys are informational here; the unit tests
				// assert the floors exactly.
				for _, det := range []string{"theft", "misroute", "cold"} {
					if v, ok := cell(t, "none "+det, "F1"); ok {
						h["cep_"+det+"_f1"] = v
					}
					if v, ok := cell(t, "60x12 "+det, "F1"); ok {
						h["cep_"+det+"_f1_dropout"] = v
					}
				}
			case "cep-perf":
				// Gate dispatch cost (larger is worse) idle and at 10k
				// subscriptions; the 1k row is recorded for the curve.
				for _, r := range t.Rows {
					if len(r.Values) != 2 {
						continue
					}
					switch r.Label {
					case "BenchmarkCEPDispatchIdle":
						h["cep_dispatch_idle_s_per_mevent"] = r.Values[1]
					case "BenchmarkCEPDispatch1kSubs":
						h["cep_dispatch_1k_s_per_mevent"] = r.Values[1]
					case "BenchmarkCEPDispatch10kSubs":
						h["cep_dispatch_10k_s_per_mevent"] = r.Values[1]
					case "BenchmarkCEPDispatch100kSubs":
						h["cep_dispatch_100k_s_per_mevent"] = r.Values[1]
					}
				}
			case "infercomp":
				if len(last.Values) == 4 {
					h["infercomp_serial_s"] = last.Values[0]
					h["infercomp_cached_s"] = last.Values[1]
					h["infercomp_cached_speedup"] = last.Values[2]
					h["infercomp_dirty_node_frac"] = last.Values[3]
				}
			case "fig11a":
				if v, ok := cell(t, last.Label, "SPIRE"); ok {
					h["fig11a_spire_f_max_rate"] = v
				}
				if v, ok := cell(t, last.Label, "SMURF"); ok {
					h["fig11a_smurf_f_max_rate"] = v
				}
			case "fig11b":
				if v, ok := cell(t, last.Label, "SPIRE L1"); ok {
					h["fig11b_l1_ratio_max_rate"] = v
				}
				if v, ok := cell(t, last.Label, "SPIRE L2"); ok {
					h["fig11b_l2_ratio_max_rate"] = v
				}
			case "fig11c":
				if v, ok := cell(t, last.Label, "L1 full"); ok {
					h["fig11c_l1_full_ratio_max_rate"] = v
				}
				if v, ok := cell(t, last.Label, "L2 full"); ok {
					h["fig11c_l2_full_ratio_max_rate"] = v
				}
			}
		}
	}
	return h
}
