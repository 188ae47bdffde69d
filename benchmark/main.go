// Command benchmark is SPIRE's end-to-end benchmark: it generates a
// seeded RFID trace, replays it closed-loop through the whole system —
// wire decode, interpretation, compression, event encode, and on the
// serving and cluster workloads the sinks and the federate layer —
// checks the output, and prints every metric by name with its unit.
//
//	go run ./benchmark -workload dense_reads            one workload
//	go run ./benchmark -workload all                    the set
//	go run ./benchmark -workload shelf_scale -trace 1   per-layer metrics and spans
//	go run ./benchmark -aa 5                            A/A comparison of the set
//
// See README.md for the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// summary is the one line the acceptance driver reads: the last line of
// standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *report) summary() summary {
	s := summary{Correct: r.OpsFailed == 0, Attempted: r.OpsAttempted, Failed: r.OpsFailed, Metrics: r.EndToEnd}
	if r.Traced {
		s.Metrics = r.PerLayer
	}
	return s
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all: dense_reads, shelf_scale, warehouse_flow, cluster_2zone")
		seed    = flag.Int64("seed", 1, "trace seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 25, "how long a run measures: the timed section is replayed against a fresh system once per 3 s of it (at least 3 times)")
		traced  = flag.Int("trace", 0, "1 adds a traced pass and reports the per-layer metrics instead of the end-to-end ones")
		aa      = flag.Int("aa", 0, "run this many sets labelled A and as many labelled B, alternating, and compare them")
		outDir  = flag.String("out", filepath.Join("benchmark", "out"), "directory for reports, span files and scratch data")
		resDir  = flag.String("results", filepath.Join("benchmark", "results"), "directory -aa writes its report and baseline to")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	switch {
	case *aa > 0:
		if err := runAA(*aa, *seed, *seconds, *outDir, *resDir); err != nil {
			fatal(err)
		}
	case *name == "all":
		failed := false
		for _, w := range workloads() {
			s, err := runChild(w.Name, *seed, *seconds, *traced, *outDir)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", w.Name, err))
			}
			failed = failed || !s.Correct
		}
		if failed {
			os.Exit(1)
		}
	default:
		w, err := findWorkload(*name)
		if err != nil {
			fatal(err)
		}
		rep, err := runWorkload(w, *seed, passesFor(*seconds), *traced != 0, *outDir)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.Name, err))
		}
		if err := emit(rep, *outDir); err != nil {
			fatal(err)
		}
		if rep.OpsFailed > 0 {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// emit writes the full report to the out directory, a readable table to
// standard error, and the summary as the last line of standard output.
func emit(rep *report, outDir string) error {
	full, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "result-"+rep.Workload+".json"), append(full, '\n'), 0o644); err != nil {
		return err
	}
	w := os.Stderr
	fmt.Fprintf(w, "%s seed %d: %d passes (fastest %d), %d timed epochs, %d readings, %d events, output %s\n",
		rep.Workload, rep.Seed, rep.Passes, rep.FastestPass, rep.TimedEpochs, rep.Readings, rep.Events, rep.OutputSHA256[:12])
	fmt.Fprintf(w, "  host: nproc %d GOMAXPROCS %d %s, pass walls %.3f s, probe %.1f ms\n",
		rep.Host.NProc, rep.Host.GOMAXPROCS, rep.Host.GoVersion, rep.PassWallS, rep.Host.ProbeMS)
	fmt.Fprintf(w, "  outside the passes: generate %.2f s, ramp %.2f s, checks %.2f s\n", rep.GenS, rep.RampS, rep.CheckS)
	fmt.Fprintf(w, "  epoch latency over %d samples, %d beyond p99\n", rep.LatencySamples, rep.SamplesBeyondP99)
	printMetrics(w, endToEnd, rep.EndToEnd)
	if rep.Traced {
		printMetrics(w, perLayer, rep.PerLayer)
		fmt.Fprintln(w, "  ledger of the traced pass (rows sum to its wall clock):")
		for _, row := range rep.Ledger {
			fmt.Fprintf(w, "    %-26s %9.4f s %6.1f %%\n", row.Layer, row.Seconds, row.Share*100)
		}
	}
	fmt.Fprintf(w, "  ops_attempted %d  ops_failed %d\n", rep.OpsAttempted, rep.OpsFailed)
	for _, p := range rep.Problems {
		fmt.Fprintln(w, "  PROBLEM:", p)
	}
	line, err := json.Marshal(rep.summary())
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

func printMetrics(w *os.File, defs []metricDef, vals map[string]metricValue) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", d.Name, vals[d.Name].Value, d.Unit)
	}
}
