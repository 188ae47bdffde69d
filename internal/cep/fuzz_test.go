package cep

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"spire/internal/model"
)

// FuzzCEPMatchEquivalence is the differential fuzz target: a random (but
// valid-by-construction) pattern and a random fault-injected event stream
// are fed to the incremental NFA engine and to the brute-force window-scan
// oracle, and the two match sets must be identical. Beside the generated
// pattern the engine registers two siblings — the same template with
// other tag(N) constants — and an exact duplicate; all four share one
// template, and each must match the oracle run on its own full pattern.
// The engine runs with huge caps so neither eviction nor ring
// backpressure can hide a divergence. A second engine fed the same
// stream with every empty epoch reported must make the same matches in
// the same order.
func FuzzCEPMatchEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte("SEQ theft misroute coldchain absence window"))
	f.Add([]byte{4, 200, 0, 0, 0, 5, 3, 3, 100, 100, 100, 1, 1, 2, 2, 9,
		9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 255, 254, 253, 252, 251, 250})
	f.Add([]byte{2, 80, 4, 0, 60, 90, 1, 3, 0, 0, 12, 34, 56, 78, 90, 12,
		7, 7, 7, 9, 9, 9, 1, 0, 1, 0, 1, 0, 200, 100, 50, 25})

	f.Fuzz(func(t *testing.T, data []byte) {
		g := &gen{data: data}
		src := genPattern(g)
		stream := genStream(g)
		// Flush with a variable advance so the trailing-NOT end-of-stream
		// cutoff (deadline reached vs not) is exercised both ways.
		var flush model.Epoch
		if len(stream) > 0 {
			flush = stream[len(stream)-1].At + model.Epoch(g.n(10))
		}
		srcs := []string{src, sibling(t, g, src), sibling(t, g, src), src}

		sparse := NewEngine(Config{maxRuns: 1 << 20, maxMatches: 1 << 20})
		dense := NewEngine(Config{maxRuns: 1 << 20, maxMatches: 1 << 20})
		var ids []int
		for _, s := range srcs {
			id, err := sparse.Subscribe(s)
			if err != nil {
				t.Fatalf("subscribe %q: %v", s, err)
			}
			if _, err := dense.Subscribe(s); err != nil {
				t.Fatalf("subscribe %q: %v", s, err)
			}
			ids = append(ids, id)
		}
		if len(sparse.tmpls) != 1 {
			t.Fatalf("pattern %q and its siblings %q hold %d templates, want 1", src, srcs[1:3], len(sparse.tmpls))
		}
		end := feedEngine(sparse, stream, flush)
		// The dense engine sees every empty epoch reported too: neither
		// the match set nor the within-epoch order may depend on which
		// idle epochs a caller reports.
		feedEngineDense(dense, stream, end)

		for i, s := range srcs {
			got, _, _ := sparse.Matches(ids[i])
			if gotDense, _, _ := dense.Matches(ids[i]); !slices.Equal(gotDense, got) {
				t.Fatalf("pattern %q end=%d: reporting empty epochs changed the matches\nsparse: %+v\ndense:  %+v\nstream: %+v",
					s, end, got, gotDense, stream)
			}
			sort.Slice(got, func(a, b int) bool {
				if got[a].Object != got[b].Object {
					return got[a].Object < got[b].Object
				}
				if got[a].Start != got[b].Start {
					return got[a].Start < got[b].Start
				}
				return got[a].At < got[b].At
			})
			p, err := Parse(s)
			if err != nil {
				t.Fatalf("generated pattern %q failed to parse: %v", s, err)
			}
			want := MatchReference(p, stream, end, ids[i])

			if len(got) != len(want) {
				t.Fatalf("pattern %q end=%d: engine %d matches, oracle %d\nengine: %+v\noracle: %+v\nstream: %+v",
					s, end, len(got), len(want), got, want, stream)
			}
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("pattern %q end=%d: match %d differs\nengine: %+v\noracle: %+v\nstream: %+v",
						s, end, k, got[k], want[k], stream)
				}
			}
		}
	})
}

// sibling rewrites src's liftable tag(N) literals with tags drawn from g:
// the same template, other constants.
func sibling(t *testing.T, g *gen, src string) string {
	var c parsed
	if err := c.parse(src); err != nil {
		t.Fatalf("generated pattern %q failed to parse: %v", src, err)
	}
	objs, _ := genTags()
	var b strings.Builder
	last := 0
	for _, l := range c.lits[:c.n] {
		if l.end != 0 {
			fmt.Fprintf(&b, "%s%d", src[last:l.start], objs[g.n(len(objs))])
			last = l.end
		}
	}
	b.WriteString(src[last:])
	return b.String()
}
