package federate

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"spire/internal/compress"
	"spire/internal/event"
	"spire/internal/inference"
	"spire/internal/model"
)

// MergeEpoch is the coordinator's barrier-shaped entry point; its
// contract is identity with the Merger driven one zone at a time — zones
// ingested in fixed order, then EndEpoch, or Close on the final epoch.
// These tests replay the fuzz harness's federated world both ways and
// demand identical streams in emission order (not just canonical order,
// because the coordinator's sink sees emission order), and identical
// errors for deliveries the merger rejects.

// zoneEpochBatches interprets a fuzz world per zone and returns each
// epoch's zone batches (epochBatches[t][z]) plus the closing batches.
func zoneEpochBatches(t *testing.T, rng *rand.Rand, nZones int, epochs model.Epoch) (perEpoch [][][]event.Event, closing [][]event.Event) {
	t.Helper()
	w := newFuzzWorld(rng, nZones)
	zoneComps := make([]*compress.Level1, nZones)
	for z := range zoneComps {
		zoneComps[z] = compress.NewLevel1(w.levelOfTag)
	}
	seen := make([][]bool, nZones)
	for z := range seen {
		seen[z] = make([]bool, w.nObjects)
	}
	for now := model.Epoch(1); now <= epochs; now++ {
		if now > 1 {
			w.step(rng)
		}
		batches := make([][]event.Event, nZones)
		for z := 0; z < nZones; z++ {
			view := newResult(now)
			for i := 0; i < w.nObjects; i++ {
				g := w.tag(i)
				if w.loc[i] != model.LocationUnknown && w.zoneOf(w.loc[i]) == z {
					seen[z][i] = true
					view.Locations[g] = w.loc[i]
					view.Parents[g] = w.parent[i]
				} else if seen[z][i] {
					view.Locations[g] = model.LocationUnknown
				}
			}
			batches[z] = slices.Clone(zoneComps[z].Compress(view))
		}
		perEpoch = append(perEpoch, batches)
	}
	closing = make([][]event.Event, nZones)
	for z := 0; z < nZones; z++ {
		closing[z] = slices.Clone(zoneComps[z].Close(epochs + 1))
	}
	return perEpoch, closing
}

// mergeSerialReference drives the Merger one zone at a time: Ingest per
// zone, then EndEpoch, and Close after the closing batches.
func mergeSerialReference(t *testing.T, perEpoch [][][]event.Event, closing [][]event.Event, epochs model.Epoch) []event.Event {
	t.Helper()
	m := NewMerger()
	var out []event.Event
	for _, batches := range perEpoch {
		for z, b := range batches {
			o, err := m.Ingest(ZoneID(z), b)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, o...)
		}
		out = append(out, m.EndEpoch()...)
	}
	for z, b := range closing {
		o, err := m.Ingest(ZoneID(z), b)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, o...)
	}
	out = append(out, m.Close(epochs+1)...)
	return out
}

// mergeEpochs drives a fresh Merger one MergeEpoch per epoch, the way
// the coordinator does; perEpoch[i] is epoch i+1.
func mergeEpochs(t *testing.T, perEpoch [][][]event.Event, closing [][]event.Event, epochs model.Epoch) []event.Event {
	t.Helper()
	m := NewMerger()
	var out []event.Event
	for ei, batches := range perEpoch {
		o, err := m.MergeEpoch(model.Epoch(ei)+1, batches, false)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, o...)
	}
	o, err := m.MergeEpoch(epochs+1, closing, true)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, o...)
}

func diffStreams(t *testing.T, name string, got, want []event.Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, Ingest reference %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: event %d differs in emission order:\n got %v\nwant %v", name, i, got[i], want[i])
		}
	}
}

// TestMergeEpochMatchesIngest pins MergeEpoch to the per-zone Ingest walk
// across seeds and zone counts; on a delivery that folds two epochs into
// one batch (the mid-batch barrier path); and on malformed and
// time-skewed batches, where both must fail with the same error text.
func TestMergeEpochMatchesIngest(t *testing.T) {
	const epochs = model.Epoch(150)
	for seed := int64(0); seed < 12; seed++ {
		for _, nz := range []int{2, 3, 4} {
			perEpoch, closing := zoneEpochBatches(t, rand.New(rand.NewSource(seed)), nz, epochs)
			want := mergeSerialReference(t, perEpoch, closing, epochs)
			diffStreams(t, fmt.Sprintf("seed %d zones %d", seed, nz), mergeEpochs(t, perEpoch, closing, epochs), want)
		}
	}

	t.Run("folded epochs", func(t *testing.T) {
		// One zone, consecutive epoch pairs folded into one delivery: the
		// events inside span two emission times, so the merger runs the
		// first epoch's barrier mid-batch. (With several zones a folded
		// delivery is illegal — zone 0 would advance the stream past
		// zone 1's first epoch.)
		perEpoch, closing := zoneEpochBatches(t, rand.New(rand.NewSource(3)), 1, 40)
		var folded [][][]event.Event
		for i := 0; i+1 < len(perEpoch); i += 2 {
			folded = append(folded, [][]event.Event{
				append(slices.Clone(perEpoch[i][0]), perEpoch[i+1][0]...),
			})
		}
		want := mergeSerialReference(t, folded, closing, 40)
		m := NewMerger()
		var got []event.Event
		for ei, batches := range folded {
			o, err := m.MergeEpoch(model.Epoch(2*ei)+2, batches, false)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, o...)
		}
		o, err := m.MergeEpoch(41, closing, true)
		if err != nil {
			t.Fatal(err)
		}
		diffStreams(t, "folded", append(got, o...), want)
	})

	bad := event.Event{Kind: event.StartLocation, Object: model.NoTag, Vs: 3, Ve: model.InfiniteEpoch}
	for _, tc := range []struct {
		name  string
		first [][]event.Event // merged at epoch 10 before the failing call
		fail  [][]event.Event // merged at epoch 10 (malformed) or 4 (skewed)
	}{
		{"malformed", nil, [][]event.Event{{event.NewStartLocation(1, 2, 10)}, {bad}}},
		{"time-skewed", [][]event.Event{{event.NewStartLocation(1, 2, 10)}}, [][]event.Event{nil, {event.NewStartLocation(2, 2, 4)}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref, m := NewMerger(), NewMerger()
			for z, b := range tc.first {
				if _, err := ref.Ingest(ZoneID(z), b); err != nil {
					t.Fatal(err)
				}
			}
			if tc.first != nil {
				ref.EndEpoch()
				if _, err := m.MergeEpoch(10, tc.first, false); err != nil {
					t.Fatal(err)
				}
			}
			var want error
			for z, b := range tc.fail {
				if _, want = ref.Ingest(ZoneID(z), b); want != nil {
					break
				}
			}
			_, got := m.MergeEpoch(10, tc.fail, false)
			if want == nil || got == nil || got.Error() != want.Error() {
				t.Fatalf("MergeEpoch error %v, Ingest error %v", got, want)
			}
		})
	}
}

// TestConflictsMatchFullScan pins the barrier's bounded conflict check:
// before every barrier, the objects Merger.conflicts names must be
// exactly those a scan over every object's state finds contradicted. The
// zones here disagree at random — each zone's compressor gets its own
// view of every object's location and container — so cross-zone
// contradictions arise constantly.
func TestConflictsMatchFullScan(t *testing.T) {
	const nContainers, nObjects, nZones = 4, 16, 3
	levelOf := func(g model.Tag) model.Level {
		if g <= nContainers {
			return model.LevelCase
		}
		return model.LevelItem
	}
	found := 0
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := NewMerger()
		comps := make([]*compress.Level1, nZones)
		views := make([]*inference.Result, nZones)
		for z := range comps {
			comps[z] = compress.NewLevel1(levelOf)
			views[z] = newResult(0)
		}
		for epoch := model.Epoch(1); epoch <= 200; epoch++ {
			for z := range comps {
				v := newResult(epoch)
				for i := 1; i <= nObjects; i++ {
					g := model.Tag(i)
					loc, seen := views[z].Locations[g]
					parent := views[z].Parents[g]
					if !seen || rng.Float64() < 0.2 {
						loc = model.LocationID(z*3 + rng.Intn(3))
						if rng.Float64() < 0.2 {
							loc = model.LocationUnknown
						}
						parent = model.NoTag
						if g > nContainers && rng.Float64() < 0.7 {
							parent = model.Tag(1 + rng.Intn(nContainers))
						}
					}
					v.Locations[g], v.Parents[g] = loc, parent
				}
				views[z] = v
				if _, err := m.Ingest(ZoneID(z), slices.Clone(comps[z].Compress(v))); err != nil {
					t.Fatal(err)
				}
			}
			var want []model.Tag
			for g := model.Tag(1); g <= nObjects; g++ {
				if o := m.states.Get(g); o != nil && m.conflicted(o) {
					want = append(want, g)
				}
			}
			if got := m.conflicts(); !slices.Equal(got, want) {
				t.Fatalf("seed %d epoch %d: conflicts %v, full scan %v", seed, epoch, got, want)
			}
			found += len(want)
			m.EndEpoch()
		}
	}
	if found == 0 {
		t.Fatal("no cross-zone conflict arose; the check proved nothing")
	}
}
