package spire_test

import (
	"bytes"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"spire/internal/cep"
	"spire/internal/core"
	"spire/internal/federate"
	"spire/internal/inference"
	"spire/internal/sim"
	"spire/internal/telemetry"
)

var updateSurface = flag.Bool("update", false, "rewrite testdata/metrics_surface.golden")

// metricSurface renders what a scraper depends on in each component's
// registry: every family's # HELP and # TYPE header, and the label-key
// sets of its children with a child count per set. Values are left out,
// so the surface is the same on every run.
func metricSurface(t *testing.T) []byte {
	t.Helper()
	s, err := sim.New(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sub, err := core.New(core.Config{
		Readers:     s.Readers(),
		Locations:   s.Locations(),
		Inference:   inference.DefaultConfig(),
		Compression: core.Level2,
	})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := federate.NewCoordinator(federate.CoordinatorConfig{Zones: 2})
	if err != nil {
		t.Fatal(err)
	}
	w, err := federate.NewWorker(federate.WorkerConfig{Zone: 1, Addr: "127.0.0.1:1", Substrate: sub})
	if err != nil {
		t.Fatal(err)
	}
	components := []struct {
		name     string
		register func(*telemetry.Registry)
	}{
		{"substrate", func(r *telemetry.Registry) { sub.Instrument(r) }},
		{"cep", func(r *telemetry.Registry) { cep.NewEngine(cep.Config{}).Instrument(r) }},
		{"coordinator (2 zones)", func(r *telemetry.Registry) { coord.Instrument(r) }},
		{"worker (zone 1)", func(r *telemetry.Registry) { w.Instrument(r) }},
	}
	var out bytes.Buffer
	for _, c := range components {
		reg := telemetry.NewRegistry()
		c.register(reg)
		var prom bytes.Buffer
		if err := reg.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		keySets := map[string]map[string]int{} // family -> label keys -> children
		for _, m := range reg.Snapshot() {
			if keySets[m.Name] == nil {
				keySets[m.Name] = map[string]int{}
			}
			keySets[m.Name][labelKeys(m.Labels)]++
		}
		fmt.Fprintf(&out, "## %s\n", c.name)
		for _, line := range strings.SplitAfter(prom.String(), "\n") {
			if !strings.HasPrefix(line, "# ") {
				continue
			}
			out.WriteString(line)
			if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
				name, _, _ = strings.Cut(name, " ")
				sets := keySets[name]
				var keys []string
				for k := range sets {
					keys = append(keys, k)
				}
				slices.Sort(keys)
				for _, k := range keys {
					fmt.Fprintf(&out, "# LABELS %s {%s} x%d\n", name, k, sets[k])
				}
			}
		}
	}
	return out.Bytes()
}

// labelKeys reduces a rendered `k1="v1",k2="v2"` label set to "k1,k2".
func labelKeys(labels string) string {
	var keys []string
	for labels != "" {
		k, rest, _ := strings.Cut(labels, `="`)
		keys = append(keys, k)
		for i := 0; i < len(rest); i++ {
			if rest[i] == '\\' {
				i++
			} else if rest[i] == '"' {
				rest = strings.TrimPrefix(rest[i+1:], ",")
				break
			}
		}
		labels = rest
	}
	return strings.Join(keys, ",")
}

// docMetric matches a metric name in prose; a trailing * marks a prefix.
var docMetric = regexp.MustCompile(`spire_[a-z_]+\*?`)

// TestMetricSurface pins the exported metric surface of the substrate,
// the CEP engine and a 2-zone cluster's coordinator and worker byte for
// byte against testdata/metrics_surface.golden, so a family cannot be
// renamed, retyped, relabeled or dropped by accident. A deliberate change
// regenerates the golden with
//
//	go test -run TestMetricSurface -update .
//
// It also fails when the docs name a spire_ metric that no component
// registers (after stripping the _sum/_count/_bucket series suffixes; a
// trailing * matches any family with that prefix).
func TestMetricSurface(t *testing.T) {
	got := metricSurface(t)
	golden := filepath.Join("testdata", "metrics_surface.golden")
	if *updateSurface {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("metric surface differs from %s (rerun with -update if deliberate):\n%s", golden, got)
	}

	var families []string
	for _, line := range strings.Split(string(got), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, _, _ := strings.Cut(rest, " ")
			families = append(families, name)
		}
	}
	docs := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")}
	err = filepath.WalkDir("docs", func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".md") {
			docs = append(docs, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range docs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range docMetric.FindAllString(string(data), -1) {
			if !registered(families, name) {
				t.Errorf("%s names %s, which no component registers", doc, name)
			}
		}
	}
}

// registered reports whether a documented metric name is a family, or a
// series of one, or (with a trailing *) a prefix of one.
func registered(families []string, name string) bool {
	if prefix, ok := strings.CutSuffix(name, "*"); ok {
		return slices.ContainsFunc(families, func(f string) bool { return strings.HasPrefix(f, prefix) })
	}
	for _, suffix := range []string{"_sum", "_count", "_bucket"} {
		if base, ok := strings.CutSuffix(name, suffix); ok && slices.Contains(families, base) {
			return true
		}
	}
	return slices.Contains(families, name)
}
