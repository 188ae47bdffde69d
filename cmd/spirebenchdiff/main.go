// Command spirebenchdiff compares two spirebench -json reports and fails
// when a headline timing metric regresses beyond a threshold. CI runs it
// against the committed baseline report (BENCH_pr20.json; see the
// Makefile's bench-check) so a change that slows the
// Table III pipeline stages by more than the threshold fails the build:
//
//	spirebench -quick -expt all -json BENCH_new.json
//	spirebenchdiff -baseline BENCH_pr20.json -current BENCH_new.json
//
// Only the Table III wall-clock keys gate (update, inference, and total
// seconds per epoch at the largest trace size): they are the paper's
// throughput claim, and unlike the quality metrics they are what a hot-path
// change can silently regress. Quality headline keys (Fig. 11 F-measures
// and compression ratios) are printed for the record but compared exactly
// in the unit tests, not thresholded here. Keys missing from either report
// fail loudly — a renamed key must not silently stop gating.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// gatedKeys are the headline metrics where larger is worse and noise-bound
// regressions gate the build, in report order.
var gatedKeys = []string{
	"table3_update_s_max",
	"table3_inference_s_max",
	"table3_s_per_epoch_max",
	// Inference sweep: the cache-off full-sweep cost at the
	// largest size gates like the Table III timings, and the steady-state
	// dirty-node fraction gates the incrementality claim — it is
	// deterministic (fixed grower seed), so a change that starts sweeping
	// clean components again fails the build rather than just slowing it.
	"infercomp_serial_s",
	"infercomp_dirty_node_frac",
	// Ingest: seconds per million readings through the front half (dedup
	// + graph update) at the largest population, and the three per-stage
	// baselines (decode, dedup, update).
	"ingest_batch1_s_per_mread",
	"ingest_decode_s_per_mread",
	"ingest_dedup_s_per_mread",
	"ingest_update_s_per_mread",
	// Federated scaling: the single-substrate interpretation cost and the
	// coordinator-side merge cost per input event, both serial. The
	// multi-zone throughput rows time genuinely parallel work and stay
	// informational — they depend on the host's idle core count.
	"zones_single_s_per_mread",
	"zones_merge_s_per_mevent",
	// The same merge replay with live coordinator instruments attached —
	// gating it keeps the cluster-health plane's per-epoch metric work
	// out of the serial merge stage's budget.
	"zones_merge_instr_s_per_mevent",
	// The batch-feed worker's per-zone ingest cost at the largest zone
	// count: what the columnar feed keeps flat as the deployment grows.
	"zones_worker_feed_s_per_mevent",
	// Subscription-engine dispatch: seconds per million events with no
	// subscriptions (the observer overhead every watched deployment pays),
	// at 10k subscriptions (the dense per-object alerting load), and at
	// 100k (the per-(kind, tag) anchor map's regime — cost must track
	// watchers-per-tag, not the raw subscription count). All
	// single-threaded under the engine mutex. The detector F1 keys
	// (cep_*_f1) are informational — the unit tests assert their floors.
	"cep_dispatch_idle_s_per_mevent",
	"cep_dispatch_10k_s_per_mevent",
	"cep_dispatch_100k_s_per_mevent",
}

type report struct {
	Quick    bool               `json:"quick"`
	Headline map[string]float64 `json:"headline"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "spirebenchdiff:", err)
		os.Exit(1)
	}
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
	if len(r.Headline) == 0 {
		return nil, fmt.Errorf("%s: no headline metrics (written by spirebench -json)", path)
	}
	return &r, nil
}

func run() error {
	var (
		basePath = flag.String("baseline", "BENCH_baseline.json", "baseline spirebench -json report")
		curPath  = flag.String("current", "", "report to compare against the baseline")
		maxRatio = flag.Float64("max-regression", 0.20, "fail when a gated metric exceeds baseline by more than this fraction")
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
	if base.Quick != cur.Quick {
		return fmt.Errorf("scale mismatch: baseline quick=%v, current quick=%v — timings are not comparable", base.Quick, cur.Quick)
	}

	var failed int
	for _, k := range gatedKeys {
		b, okB := base.Headline[k]
		c, okC := cur.Headline[k]
		switch {
		case !okB || !okC:
			fmt.Printf("FAIL %-28s missing (baseline %v, current %v)\n", k, okB, okC)
			failed++
		case b <= 0:
			fmt.Printf("FAIL %-28s baseline %g is not a positive timing\n", k, b)
			failed++
		default:
			ratio := c/b - 1
			verdict := "ok  "
			if ratio > *maxRatio {
				verdict = "FAIL"
				failed++
			}
			fmt.Printf("%s %-28s %12.6f -> %12.6f  (%+.1f%%, limit +%.0f%%)\n",
				verdict, k, b, c, 100*ratio, 100**maxRatio)
		}
	}

	// Informational: the quality metrics, so the CI log shows the whole
	// headline even though only the timings gate.
	for k, c := range cur.Headline {
		if gated := func() bool {
			for _, g := range gatedKeys {
				if g == k {
					return true
				}
			}
			return false
		}(); gated {
			continue
		}
		if b, ok := base.Headline[k]; ok {
			fmt.Printf("info %-28s %12.6f -> %12.6f\n", k, b, c)
		}
	}

	if failed > 0 {
		return fmt.Errorf("%d gated metric(s) regressed more than %.0f%%", failed, 100**maxRatio)
	}
	fmt.Println("all gated metrics within threshold")
	return nil
}
