package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"spire/internal/cep"
	"spire/internal/compress"
	"spire/internal/core"
	"spire/internal/epc"
	"spire/internal/event"
	"spire/internal/model"
	"spire/internal/query"
)

// qname renders a tag the way spirequery prints it.
func qname(g model.Tag) string {
	id, err := epc.Decode(g)
	if err != nil {
		return fmt.Sprintf("tag-%d", g)
	}
	return fmt.Sprintf("%s-%d.%d(%d)", id.Level, id.ItemRef, id.Serial, g)
}

// TestQueryMatchesStore runs spirequery over the level-1 and level-2
// streams spire writes for the harness trace. Each answer must equal an
// in-process query.Store fed the level-1 events the file carries: the
// substrate's level-1 output, or its level-2 output decompressed one
// epoch at a time. -watch must print the matches of an in-process engine
// fed those same events one epoch per call, in order.
func TestQueryMatchesStore(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		level core.CompressionLevel
		args  []string
	}{
		{core.Level1, nil},
		{core.Level2, []string{"-level2"}},
	} {
		t.Run(fmt.Sprintf("level%d", tc.level), func(t *testing.T) {
			file := filepath.Join(dir, fmt.Sprintf("l%d.bin", tc.level))
			runSpire(t, "-input", tracePath, "-level", fmt.Sprint(int(tc.level)), "-o", file)
			query := func(args ...string) string {
				t.Helper()
				cmd := exec.Command(filepath.Join(binDir, "spirequery"), append(append([]string{"-events", file}, tc.args...), args...)...)
				var stderr bytes.Buffer
				cmd.Stderr = &stderr
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("spirequery %v: %v\n%s", args, err, stderr.String())
				}
				return string(out)
			}

			epochs, batches := referenceLevel1(t, tc.level)
			store := referenceStore(t, batches)
			if got, want := query("-summary"), fmt.Sprintf("events: %d, objects: %d\n", store.Events(), len(store.Objects())); got != want {
				t.Errorf("-summary: %q, want %q", got, want)
			}

			// The object with the longest path, asked where it was in
			// every stay of that path.
			var g model.Tag
			for _, o := range store.Objects() {
				if len(store.Path(o)) > len(store.Path(g)) {
					g = o
				}
			}
			var want strings.Builder
			fmt.Fprintf(&want, "path of %s:", qname(g))
			for _, l := range store.Path(g) {
				fmt.Fprintf(&want, " L%d", l)
			}
			if got := query("-path", fmt.Sprint(g)); got != want.String()+"\n" {
				t.Errorf("-path %d: %q, want %q", g, got, want.String()+"\n")
			}
			for _, st := range store.History(g) {
				at := st.Vs
				var want strings.Builder
				if l, ok := store.LocationAt(g, at); ok {
					fmt.Fprintf(&want, "%s @%d: location L%d\n", qname(g), at, l)
				} else {
					fmt.Fprintf(&want, "%s @%d: location unknown\n", qname(g), at)
				}
				if c, ok := store.ContainerAt(g, at); ok {
					fmt.Fprintf(&want, "%s @%d: inside %s (top: %s)\n", qname(g), at, qname(c), qname(store.TopContainerAt(g, at)))
				} else {
					fmt.Fprintf(&want, "%s @%d: not contained\n", qname(g), at)
				}
				if got := query("-obj", fmt.Sprint(g), "-at", fmt.Sprint(at)); got != want.String() {
					t.Errorf("-obj %d -at %d: %q, want %q", g, at, got, want.String())
				}
			}

			// The first epoch with an object missing.
			at := model.Epoch(0)
			for ; at < 1500 && len(store.MissingAt(at)) == 0; at++ {
			}
			miss := store.MissingAt(at)
			if len(miss) == 0 {
				t.Fatal("the trace reports no object missing")
			}
			want.Reset()
			fmt.Fprintf(&want, "missing at %d: %d objects\n", at, len(miss))
			for _, o := range miss {
				fmt.Fprintf(&want, "  %s\n", qname(o))
			}
			if got := query("-missing-at", fmt.Sprint(at)); got != want.String() {
				t.Errorf("-missing-at %d: %q, want %q", at, got, want.String())
			}

			var args []string
			for _, p := range watchPatterns {
				args = append(args, "-watch", p)
			}
			if got, want := query(args...), referenceMatches(t, epochs, batches); got != want {
				t.Errorf("-watch printed %d lines, want %d\n%s", strings.Count(got, "\n"), strings.Count(want, "\n"), firstDiff(got, want))
			}
		})
	}
}

// watchPatterns are the subscriptions the -watch checks replay: a theft
// alarm (trailing NOT, resolved when its window closes), a window that
// completes on an event, and a trailing NOT that mostly fires.
var watchPatterns = []string{
	"SEQ(missing(), NOT start()) WITHIN 60",
	"SEQ(start(), end()) WITHIN 30",
	"SEQ(start(), NOT end()) WITHIN 30",
}

// printMatch renders a match the way spirequery -watch prints it.
func printMatch(b *strings.Builder, sub int, obj model.Tag, start, at model.Epoch) {
	fmt.Fprintf(b, "match sub=%d object=%s start=%d at=%d\n", sub, qname(obj), start, at)
}

// referenceMatches feeds watchPatterns an in-process engine one epoch
// per call and prints its matches in completion order.
func referenceMatches(t *testing.T, epochs []model.Epoch, batches [][]event.Event) string {
	t.Helper()
	var b strings.Builder
	engine := cep.NewEngine(cep.Config{})
	for _, p := range watchPatterns {
		if _, err := engine.SubscribeFunc(p, func(m cep.Match) { printMatch(&b, m.Sub, m.Object, m.Start, m.At) }); err != nil {
			t.Fatal(err)
		}
	}
	for i, evs := range batches {
		engine.Epoch(epochs[i], evs)
	}
	if b.Len() == 0 {
		t.Fatal("the reference engine made no match")
	}
	return b.String()
}

// TestWatchMatchesSubscribe pins replay to the live run: spirequery
// -watch over the level-1 stream spire writes for the harness trace must
// print exactly the matches spire -subscribe logs on that trace, in
// order.
func TestWatchMatchesSubscribe(t *testing.T) {
	file := filepath.Join(t.TempDir(), "l1.bin")
	live := []string{"-input", tracePath, "-level", "1", "-o", file}
	watch := []string{"-events", file}
	for _, p := range watchPatterns {
		live = append(live, "-subscribe", p)
		watch = append(watch, "-watch", p)
	}
	cmd := exec.Command(filepath.Join(binDir, "spire"), live...)
	var logs bytes.Buffer
	cmd.Stderr = &logs
	if err := cmd.Run(); err != nil {
		t.Fatalf("spire %v: %v\n%s", live, err, logs.String())
	}
	matchLine := regexp.MustCompile(`msg=match component=cep sub=(\d+) object=(\d+) start=(\d+) at=(\d+)`)
	var want strings.Builder
	for _, m := range matchLine.FindAllStringSubmatch(logs.String(), -1) {
		n := make([]uint64, 4)
		for i := range n {
			n[i], _ = strconv.ParseUint(m[i+1], 10, 64)
		}
		printMatch(&want, int(n[0]), model.Tag(n[1]), model.Epoch(n[2]), model.Epoch(n[3]))
	}
	if want.Len() == 0 {
		t.Fatal("spire -subscribe logged no match")
	}

	cmd = exec.Command(filepath.Join(binDir, "spirequery"), watch...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	got, err := cmd.Output()
	if err != nil {
		t.Fatalf("spirequery %v: %v\n%s", watch, err, stderr.String())
	}
	if string(got) != want.String() {
		t.Errorf("-watch printed %d lines, spire -subscribe logged %d\n%s",
			bytes.Count(got, []byte("\n")), strings.Count(want.String(), "\n"), firstDiff(string(got), want.String()))
	}
}

// firstDiff names the first line where got and want part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("one is a prefix of the other (%d vs %d lines)", len(g), len(w))
}

// referenceLevel1 returns the in-process substrate's stream at level as
// level-1 events one epoch at a time, level-2 output decompressed, with
// the closing events at the close epoch.
func referenceLevel1(t *testing.T, level core.CompressionLevel) (epochs []model.Epoch, batches [][]event.Event) {
	t.Helper()
	epochs, batches = referenceBatches(t, level)
	epochs[len(epochs)-1] = epochs[len(epochs)-2] + 1
	if level == core.Level2 {
		dec := compress.NewDecompressor()
		for i := range batches {
			var err error
			if batches[i], err = dec.Step(batches[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return epochs, batches
}

// referenceStore indexes level-1 batches into a query store.
func referenceStore(t *testing.T, batches [][]event.Event) *query.Store {
	t.Helper()
	store := query.NewStore()
	for _, evs := range batches {
		if err := store.Feed(evs...); err != nil {
			t.Fatal(err)
		}
	}
	if len(store.Objects()) == 0 {
		t.Fatal("reference store is empty")
	}
	return store
}
