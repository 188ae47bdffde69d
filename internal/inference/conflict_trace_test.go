package inference

import (
	"reflect"
	"testing"

	"spire/internal/model"
	"spire/internal/trace"
)

// Table-driven coverage of the three Table I rules, asserting both the
// resolved outcome and the provenance reason the traced variant records —
// a wrong-but-plausible record (Rule I logged as Rule III, a poll logged
// against the child) is exactly the bug provenance exists to prevent.

func caseItemLevels(g model.Tag) model.Level {
	if g == 10 {
		return model.LevelCase
	}
	return model.LevelItem
}

// mechsOf returns the recorded mechanism slugs for tag, oldest first.
func mechsOf(rec *trace.Recorder, g model.Tag) []string {
	var out []string
	for _, r := range rec.TagRecords(g) {
		out = append(out, r.Mech.String())
	}
	return out
}

func TestResolveConflictsTracedRules(t *testing.T) {
	const epoch = model.Epoch(7)
	cases := []struct {
		name    string
		res     *Result
		levelOf func(model.Tag) model.Level

		wantLoc    map[model.Tag]model.LocationID
		wantParent map[model.Tag]model.Tag
		// wantRecords maps tag → expected mechanism slugs, oldest first.
		// Tags absent from the map must have recorded nothing.
		wantRecords map[model.Tag][]string
	}{
		{
			// Rule I: observed parent at A, inferred child at B — the
			// child inherits A, containment survives, and the child's
			// record cites Rule I with the parent as the source.
			name: "rule-I",
			res: &Result{
				Now:       epoch,
				Locations: map[model.Tag]model.LocationID{10: locA, 20: locB},
				Parents:   map[model.Tag]model.Tag{20: 10},
				Observed:  map[model.Tag]bool{10: true},
			},
			levelOf:     caseItemLevels,
			wantLoc:     map[model.Tag]model.LocationID{10: locA, 20: locA},
			wantParent:  map[model.Tag]model.Tag{20: 10},
			wantRecords: map[model.Tag][]string{20: {"conflict-rule-I"}},
		},
		{
			// Rule II: inferred parent, observed children 2×B + 1×C —
			// the poll moves the parent to B (recorded against the
			// parent), and the C child's containment ends with a Rule II
			// record. The agreeing children record nothing.
			name: "rule-II",
			res: &Result{
				Now: epoch,
				Locations: map[model.Tag]model.LocationID{
					10: locA,
					21: locB, 22: locB, 23: locC,
				},
				Parents:  map[model.Tag]model.Tag{21: 10, 22: 10, 23: 10},
				Observed: map[model.Tag]bool{21: true, 22: true, 23: true},
			},
			levelOf: caseItemLevels,
			wantLoc: map[model.Tag]model.LocationID{
				10: locB, 21: locB, 22: locB, 23: locC,
			},
			wantParent: map[model.Tag]model.Tag{21: 10, 22: 10, 23: model.NoTag},
			wantRecords: map[model.Tag][]string{
				10: {"majority-poll"},
				23: {"conflict-rule-II"},
			},
		},
		{
			// Rule III: inferred parent, inferred children 2×B + 1×C —
			// the poll moves the parent to B, then the C child is
			// overridden with a Rule III record and keeps its containment.
			name: "rule-III",
			res: &Result{
				Now: epoch,
				Locations: map[model.Tag]model.LocationID{
					10: locA,
					21: locB, 22: locB, 23: locC,
				},
				Parents:  map[model.Tag]model.Tag{21: 10, 22: 10, 23: 10},
				Observed: map[model.Tag]bool{},
			},
			levelOf: caseItemLevels,
			wantLoc: map[model.Tag]model.LocationID{
				10: locB, 21: locB, 22: locB, 23: locB,
			},
			wantParent: map[model.Tag]model.Tag{21: 10, 22: 10, 23: 10},
			wantRecords: map[model.Tag][]string{
				10: {"majority-poll"},
				23: {"conflict-rule-III"},
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := trace.New(trace.Config{All: true})
			ResolveConflicts(tc.res, tc.levelOf, rec)

			for g, want := range tc.wantLoc {
				if got := verdictOf(tc.res, g).Location; got != want {
					t.Errorf("tag %d location = %v, want %v", g, got, want)
				}
			}
			for g, want := range tc.wantParent {
				if got := verdictOf(tc.res, g).Parent; got != want {
					t.Errorf("tag %d parent = %v, want %v", g, got, want)
				}
			}
			for g, want := range tc.wantRecords {
				got := mechsOf(rec, g)
				if len(got) != len(want) {
					t.Errorf("tag %d records = %v, want %v", g, got, want)
					continue
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("tag %d record %d = %s, want %s", g, i, got[i], want[i])
					}
				}
			}
			// No provenance may be invented for tags the rules left alone.
			for _, g := range rec.TracedTags() {
				if _, ok := tc.wantRecords[g]; !ok {
					t.Errorf("unexpected provenance for tag %d: %v", g, mechsOf(rec, g))
				}
			}
			// Every record must carry the epoch and, for the rule records,
			// the resolved location and parent.
			for _, g := range rec.TracedTags() {
				for _, r := range rec.TagRecords(g) {
					if r.Epoch != epoch {
						t.Errorf("tag %d record epoch = %d, want %d", g, r.Epoch, epoch)
					}
				}
			}
		})
	}
}

// TestResolveConflictsTracedRuleIIDefensive pins the both-observed
// defensive variant: the containment ends and the record carries Aux=1 to
// distinguish it from a plain Rule II firing.
func TestResolveConflictsTracedRuleIIDefensive(t *testing.T) {
	res := &Result{
		Now:       3,
		Locations: map[model.Tag]model.LocationID{10: locA, 20: locB},
		Parents:   map[model.Tag]model.Tag{20: 10},
		Observed:  map[model.Tag]bool{10: true, 20: true},
	}
	rec := trace.New(trace.Config{All: true})
	ResolveConflicts(res, caseItemLevels, rec)
	if verdictOf(res, 20).Parent != model.NoTag {
		t.Error("both-observed conflict must end the containment")
	}
	recs := rec.TagRecords(20)
	if len(recs) != 1 || recs[0].Mech != trace.MechRuleII || recs[0].Aux != 1 {
		t.Errorf("want one RuleII record with Aux=1, got %+v", recs)
	}
}

// TestResolveConflictsTracedNilMatchesPlain pins that the recorder is
// observation-only: a nil and a non-nil recorder make identical
// mutations, and only the non-nil one records provenance.
func TestResolveConflictsTracedNilMatchesPlain(t *testing.T) {
	build := func() *Result {
		return &Result{
			Now: 5,
			Locations: map[model.Tag]model.LocationID{
				10: locA, 21: locB, 22: locB, 23: locC,
			},
			Parents:  map[model.Tag]model.Tag{21: 10, 22: 10, 23: 10},
			Observed: map[model.Tag]bool{21: true, 22: true, 23: true},
		}
	}
	a, b := build(), build()
	rec := trace.New(trace.Config{All: true})
	ResolveConflicts(a, caseItemLevels, nil)
	ResolveConflicts(b, caseItemLevels, rec)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("recorder changed the mutations:\n nil %+v\n rec %+v", a, b)
	}
	if len(rec.TagRecords(10)) == 0 {
		t.Error("non-nil recorder recorded no provenance")
	}
}
