package main

import (
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// parentSurface is every binary's flag surface as the commit before the
// shared internal/cli groups printed it with -h: each flag's name and its
// printed default ("" when -h prints none). spirebench's -j defaults to
// the host's CPU count, written here as "NumCPU".
var parentSurface = map[string]map[string]string{
	"spire":           {"adaptive-beta": "", "beta": "0.4", "checkpoint": "", "checkpoint-every": "60", "duration": "10800", "gamma": "0.4", "input": "", "level": "1", "log-level": "", "metrics-addr": "", "o": "", "pprof": "", "prune": "", "read-rate": "0.85", "restore": "", "seed": "1", "shelf-period": "60", "simulate": "", "subscribe": "", "telemetry-dump": "", "theft-interval": "", "theta": "1.25", "trace-dump": "", "trace-epochs": "", "trace-tags": ""},
	"spirebench":      {"expt": `"all"`, "j": "NumCPU", "json": "", "list": "", "quick": ""},
	"spirebenchdiff":  {"baseline": `"BENCH_pr34.json"`, "current": ""},
	"spiredecompress": {"close": "-1", "i": "", "o": "stdout", "validate": "true"},
	"spirefed":        {"listen": `"127.0.0.1:7412"`, "log-level": "", "metrics-addr": "", "o": "", "pprof": "", "q": "", "serve": "", "straggler-timeout": "30s", "straggler-warn": "0.5", "zones": "2"},
	"spirequery":      {"at": "-1", "events": "", "history": "", "level2": "", "loc": "-1", "log": "", "missing-at": "-1", "obj": "", "path": "", "serve": "", "summary": "", "watch": ""},
	"spiresim":        {"cases-max": "5", "cases-min": "5", "cold-case-period": "", "cold-shuffle-dwell": "", "cold-shuffle-interval": "", "duration": "10800", "excursion-dwell": "", "excursion-interval": "", "items": "20", "log-level": "", "metrics-addr": "", "misroute-interval": "", "o": "stdout", "pallet-interval": "600", "q": "", "read-rate": "0.85", "seed": "1", "shelf-period": "60", "shelf-time": "3600", "shelves": "4", "subscribe": "", "telemetry-dump": "", "theft-interval": "", "trace-dump": "", "trace-epochs": "", "trace-tags": ""},
	"spirezone":       {"ack-window": "64", "addr": `"127.0.0.1:7412"`, "checkpoint": "", "checkpoint-every": "50", "duration": "10800", "jitter-seed": "", "level": "1", "log-level": "", "metrics-addr": "", "pprof": "", "q": "", "seed": "1", "theft-interval": "", "zone": "-1", "zones": "2"},
}

// wantSurface is parentSurface with the deliberate changes applied:
// spiresim lost its two no-op flags and gained -pprof with the shared
// Serve group.
func wantSurface() map[string]map[string]string {
	want := make(map[string]map[string]string)
	for bin, flags := range parentSurface {
		want[bin] = maps.Clone(flags)
	}
	want["spirebench"]["j"] = fmt.Sprint(runtime.NumCPU())
	delete(want["spiresim"], "trace-tags")
	delete(want["spiresim"], "subscribe")
	want["spiresim"]["pprof"] = ""
	return want
}

var printedDefault = regexp.MustCompile(`\(default (.*)\)$`)

// flagSurface runs bin -h and parses each flag's name and printed default.
func flagSurface(t *testing.T, bin string) map[string]string {
	t.Helper()
	out, err := exec.Command(filepath.Join(binDir, bin), "-h").CombinedOutput()
	if err != nil {
		t.Fatalf("%s -h: %v\n%s", bin, err, out)
	}
	flags := make(map[string]string)
	var name, text string
	add := func() {
		if name == "" {
			return
		}
		def := ""
		if m := printedDefault.FindStringSubmatch(text); m != nil {
			def = m[1]
		}
		flags[name] = def
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n")[1:] {
		if strings.HasPrefix(line, "  -") {
			add()
			name, text = strings.Fields(line[3:])[0], line
		} else {
			text += "\n" + line
		}
	}
	add()
	return flags
}

// TestFlagSurface pins every binary's flags — names and printed defaults —
// to the surface before the shared groups moved into internal/cli, and
// checks that every flag a README or verify-skill command line passes to
// a binary exists there.
func TestFlagSurface(t *testing.T) {
	want := wantSurface()
	got := make(map[string]map[string]string)
	for bin := range want {
		got[bin] = flagSurface(t, bin)
		for name, def := range want[bin] {
			if g, ok := got[bin][name]; !ok {
				t.Errorf("%s: -%s is gone", bin, name)
			} else if g != def {
				t.Errorf("%s -%s: default %s, want %s", bin, name, g, def)
			}
		}
		for name := range got[bin] {
			if _, ok := want[bin][name]; !ok {
				t.Errorf("%s: unexpected new flag -%s", bin, name)
			}
		}
	}

	for _, doc := range []string{"../../README.md", "../../.claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for _, cmd := range docCommands(string(text)) {
			bin, args := cmd[0], cmd[1:]
			flags, ok := got[bin]
			if !ok {
				continue
			}
			checked++
			for _, a := range args {
				name := strings.TrimLeft(a, "-")
				name, _, _ = strings.Cut(name, "=")
				if !strings.HasPrefix(a, "-") || !docFlag.MatchString(name) {
					continue
				}
				if _, ok := flags[name]; !ok {
					t.Errorf("%s: `%s` passes -%s, which %s does not define", doc, strings.Join(cmd, " "), name, bin)
				}
			}
		}
		if checked == 0 {
			t.Errorf("%s: found no command lines to check", doc)
		}
	}
}

var (
	docFlag     = regexp.MustCompile(`^[a-z][a-z0-9-]*$`)
	fencedBlock = regexp.MustCompile("(?s)```.*?```")
	inlineCode  = regexp.MustCompile("`([^`]+)`")
	// A single-quoted word such as 'SEQ(missing() & level(case), ...)' is
	// blanked before splitting, so it is neither split nor read as flags.
	quoted   = regexp.MustCompile(`'[^']*'`)
	shellSep = regexp.MustCompile(`&&|\|\||[|;&]`)
)

// docCommands extracts the command lines of a Markdown document: each
// line of a fenced block (with backslash continuations joined) and each
// inline code span, cut at a shell comment and split at shell separators.
// A command names its binary first, as a path or after `go run` and an
// optional `$ ` prompt; it is returned as the binary's base name followed
// by its arguments.
func docCommands(md string) [][]string {
	var spans []string
	fenced := false
	var block []string
	for _, line := range strings.Split(md, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			if fenced {
				joined := strings.ReplaceAll(strings.Join(block, "\n"), "\\\n", " ")
				spans = append(spans, strings.Split(joined, "\n")...)
				block = nil
			}
			fenced = !fenced
			continue
		}
		if fenced {
			block = append(block, line)
		}
	}
	for _, m := range inlineCode.FindAllStringSubmatch(fencedBlock.ReplaceAllString(md, ""), -1) {
		spans = append(spans, strings.ReplaceAll(m[1], "\n", " "))
	}

	var cmds [][]string
	for _, span := range spans {
		span, _, _ = strings.Cut(quoted.ReplaceAllString(span, "''"), " #")
		for _, part := range shellSep.Split(span, -1) {
			f := strings.Fields(part)
			if len(f) > 0 && f[0] == "$" {
				f = f[1:]
			}
			if len(f) > 2 && f[0] == "go" && f[1] == "run" {
				f = f[2:]
			}
			if len(f) > 0 {
				cmds = append(cmds, append([]string{filepath.Base(f[0])}, f[1:]...))
			}
		}
	}
	return cmds
}
