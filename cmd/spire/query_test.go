package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"spire/internal/compress"
	"spire/internal/core"
	"spire/internal/epc"
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
// epoch at a time. -watch must print what it printed before the shared
// command-line groups, byte for byte.
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

			store := referenceStore(t, tc.level)
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

			const watchSHA = "bffa628fbb6a13723d9aeb8e0ced0bab627da760ec555f0f71a390c3e89d24af"
			if got := query("-watch", "SEQ(missing(), NOT start()) WITHIN 60"); sha([]byte(got)) != watchSHA {
				t.Errorf("-watch printed %q (sha %s), want sha %s", got, sha([]byte(got)), watchSHA)
			}
		})
	}
}

// referenceStore indexes the level-1 events of the in-process substrate's
// stream at level: level-2 output is decompressed one epoch at a time.
func referenceStore(t *testing.T, level core.CompressionLevel) *query.Store {
	t.Helper()
	_, batches := referenceBatches(t, level)
	store := query.NewStore()
	dec := compress.NewDecompressor()
	for _, evs := range batches {
		if level == core.Level2 {
			var err error
			if evs, err = dec.Step(evs); err != nil {
				t.Fatal(err)
			}
		}
		if err := store.Feed(evs...); err != nil {
			t.Fatal(err)
		}
	}
	if len(store.Objects()) == 0 {
		t.Fatal("reference store is empty")
	}
	return store
}
