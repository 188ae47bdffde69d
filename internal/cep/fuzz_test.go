package cep

import (
	"slices"
	"sort"
	"testing"

	"spire/internal/model"
)

// FuzzCEPMatchEquivalence is the differential fuzz target: a random (but
// valid-by-construction) pattern and a random fault-injected event stream
// are fed to the incremental NFA engine and to the brute-force window-scan
// oracle, and the two match sets must be identical. The engine runs with
// huge caps so neither eviction nor ring backpressure can hide a
// divergence. A second engine fed the same stream with every empty epoch
// reported must make the same matches in the same order.
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
		p, err := Parse(src)
		if err != nil {
			t.Fatalf("generated pattern %q failed to parse: %v", src, err)
		}
		stream := genStream(g)

		e := NewEngine(Config{maxRuns: 1 << 20, maxMatches: 1 << 20})
		id, err := e.Subscribe(src)
		if err != nil {
			t.Fatalf("subscribe %q: %v", src, err)
		}

		// Flush with a variable advance so the trailing-NOT end-of-stream
		// cutoff (deadline reached vs not) is exercised both ways.
		var flush model.Epoch
		if len(stream) > 0 {
			flush = stream[len(stream)-1].At + model.Epoch(g.n(10))
		}
		end := feedEngine(e, stream, flush)

		got, _, _ := e.Matches(id)

		// A second engine fed the same stream with every empty epoch
		// reported too must make the same matches in the same order:
		// neither the match set nor the within-epoch order may depend on
		// which idle epochs a caller reports.
		dense := NewEngine(Config{maxRuns: 1 << 20, maxMatches: 1 << 20})
		denseID, err := dense.Subscribe(src)
		if err != nil {
			t.Fatalf("subscribe %q: %v", src, err)
		}
		feedEngineDense(dense, stream, end)
		if gotDense, _, _ := dense.Matches(denseID); !slices.Equal(gotDense, got) {
			t.Fatalf("pattern %q end=%d: reporting empty epochs changed the matches\nsparse: %+v\ndense:  %+v\nstream: %+v",
				src, end, got, gotDense, stream)
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
		want := MatchReference(p, stream, end, id)

		if len(got) != len(want) {
			t.Fatalf("pattern %q end=%d: engine %d matches, oracle %d\nengine: %+v\noracle: %+v\nstream: %+v",
				src, end, len(got), len(want), got, want, stream)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("pattern %q end=%d: match %d differs\nengine: %+v\noracle: %+v\nstream: %+v",
					src, end, i, got[i], want[i], stream)
			}
		}
	})
}
