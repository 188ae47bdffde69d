package cep

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"

	"spire/internal/epc"
	"spire/internal/event"
	"spire/internal/model"
	"spire/internal/telemetry"
)

func TestParseValid(t *testing.T) {
	for _, src := range []string{
		"SEQ(any())",
		"SEQ(start())",
		"SEQ(start(3))",
		"SEQ(start(2..5))",
		"SEQ(start(!2..5))",
		"SEQ(missing() & level(case), NOT start()) WITHIN 40",
		"SEQ(start(7) & level(case), contain(), uncontain(@2), start(2..5)) WITHIN 150",
		"SEQ(start(2..5) & company(9) & level(case), NOT start(2)) WITHIN 25",
		"SEQ(tag(42), end(@1)) WITHIN 10",
		"SEQ(contain(99), uncontain(99))",
		"SEQ(start(1), NOT end(!@1), start(2)) WITHIN 9",
	} {
		p, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		if p.String() != src {
			t.Errorf("String() = %q, want %q", p.String(), src)
		}
	}
}

func TestParseInvalid(t *testing.T) {
	for _, tc := range []struct{ src, wantErr string }{
		{"", "expected SEQ"},
		{"SEQ()", "expected an atom"},
		{"SEQ(NOT start())", "first step must be positive"},
		{"SEQ(start(), NOT any(), NOT any(), end())", "adjacent NOT"},
		{"SEQ(start(), NOT end())", "trailing NOT requires"},
		{"SEQ(start()) WITHIN 0", "out of range"},
		{"SEQ(start(@1))", "must reference an earlier step"},
		{"SEQ(start(), NOT any(), start(@2)) WITHIN 5", "references a NOT step"},
		{"SEQ(bogus())", "unknown atom"},
		{"SEQ(start() & missing())", "more than one event-kind atom"},
		{"SEQ(level(crate))", "unknown level"},
		{"SEQ(start(5..2))", "empty location range"},
		{"SEQ(start()) garbage", "trailing input"},
		{"SEQ(tag(0))", "must be positive"},
		{"SEQ(" + strings.Repeat("any(),", MaxSteps) + "any())", "exceed"},
	} {
		_, err := Parse(tc.src)
		if err == nil {
			t.Errorf("Parse(%q): expected error containing %q", tc.src, tc.wantErr)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("Parse(%q) error = %v, want substring %q", tc.src, err, tc.wantErr)
		}
	}
}

// collect subscribes src with a callback accumulating matches.
func collect(t *testing.T, e *Engine, src string) (*[]Match, int) {
	t.Helper()
	var ms []Match
	id, err := e.SubscribeFunc(src, func(m Match) { ms = append(ms, m) })
	if err != nil {
		t.Fatalf("SubscribeFunc(%q): %v", src, err)
	}
	return &ms, id
}

func TestSequenceAndWindow(t *testing.T) {
	e := NewEngine(Config{})
	ms, _ := collect(t, e, "SEQ(start(1), start(2)) WITHIN 10")

	e.Epoch(5, []event.Event{event.NewStartLocation(7, 1, 5)})
	e.Epoch(12, []event.Event{event.NewStartLocation(7, 2, 12)})
	if len(*ms) != 1 || (*ms)[0].Start != 5 || (*ms)[0].At != 12 {
		t.Fatalf("matches = %+v, want one (5,12)", *ms)
	}

	// Outside the window: anchored at 20, second step at 31 > 30.
	e.Epoch(20, []event.Event{event.NewStartLocation(8, 1, 20)})
	e.Epoch(31, []event.Event{event.NewStartLocation(8, 2, 31)})
	if len(*ms) != 1 {
		t.Fatalf("window leak: %+v", *ms)
	}

	// At the window boundary (inclusive).
	e.Epoch(40, []event.Event{event.NewStartLocation(9, 1, 40)})
	e.Epoch(50, []event.Event{event.NewStartLocation(9, 2, 50)})
	if len(*ms) != 2 {
		t.Fatalf("boundary miss: %+v", *ms)
	}
}

func TestObjectPartitioning(t *testing.T) {
	e := NewEngine(Config{})
	ms, _ := collect(t, e, "SEQ(start(1), start(2)) WITHIN 10")
	// Steps satisfied by different objects must not combine.
	e.Epoch(1, []event.Event{event.NewStartLocation(7, 1, 1)})
	e.Epoch(2, []event.Event{event.NewStartLocation(8, 2, 2)})
	if len(*ms) != 0 {
		t.Fatalf("cross-object match: %+v", *ms)
	}
}

func TestNegationBetweenSteps(t *testing.T) {
	e := NewEngine(Config{})
	ms, _ := collect(t, e, "SEQ(start(1), NOT start(9), start(2)) WITHIN 20")

	// Clean sequence: matches.
	e.Epoch(1, []event.Event{event.NewStartLocation(7, 1, 1)})
	e.Epoch(3, []event.Event{event.NewStartLocation(7, 2, 3)})
	if len(*ms) != 1 {
		t.Fatalf("clean NOT: %+v", *ms)
	}
	// Violating event between the positives kills the run.
	e.Epoch(10, []event.Event{event.NewStartLocation(8, 1, 10)})
	e.Epoch(11, []event.Event{event.NewStartLocation(8, 9, 11)})
	e.Epoch(12, []event.Event{event.NewStartLocation(8, 2, 12)})
	if len(*ms) != 1 {
		t.Fatalf("NOT failed to kill: %+v", *ms)
	}
}

func TestTrailingNotAbsence(t *testing.T) {
	e := NewEngine(Config{})
	ms, _ := collect(t, e, "SEQ(missing(), NOT start()) WITHIN 15")

	// Absence holds: match exactly at the window end.
	e.Epoch(10, []event.Event{event.NewMissing(7, 3, 10)})
	e.Epoch(24, nil)
	if len(*ms) != 0 {
		t.Fatalf("completed before window end: %+v", *ms)
	}
	e.Epoch(25, nil)
	if len(*ms) != 1 || (*ms)[0].At != 25 || (*ms)[0].Start != 10 {
		t.Fatalf("trailing NOT: %+v, want (10,25)", *ms)
	}

	// Re-sighting kills the pending absence.
	e.Epoch(40, []event.Event{event.NewMissing(8, 3, 40)})
	e.Epoch(45, []event.Event{event.NewStartLocation(8, 2, 45)})
	e.Epoch(60, nil)
	if len(*ms) != 1 {
		t.Fatalf("resight failed to kill: %+v", *ms)
	}

	// A clock gap past the deadline still completes the absence.
	e.Epoch(100, []event.Event{event.NewMissing(9, 3, 100)})
	e.Epoch(200, []event.Event{event.NewStartLocation(9, 2, 200)})
	if len(*ms) != 2 || (*ms)[1].At != 115 {
		t.Fatalf("gap resolution: %+v, want second match at 115", *ms)
	}
}

func TestBackrefs(t *testing.T) {
	e := NewEngine(Config{})
	// End at the same location the sequence started.
	ms, _ := collect(t, e, "SEQ(start(), end(@1)) WITHIN 50")
	e.Epoch(1, []event.Event{event.NewStartLocation(7, 4, 1)})
	e.Epoch(2, []event.Event{event.NewEndLocation(7, 5, 1, 2)}) // different loc: no
	e.Epoch(3, []event.Event{event.NewEndLocation(7, 4, 1, 3)})
	if len(*ms) != 1 || (*ms)[0].At != 3 {
		t.Fatalf("loc backref: %+v", *ms)
	}

	// Uncontained from the container bound earlier.
	ms2, _ := collect(t, e, "SEQ(contain(), uncontain(@1)) WITHIN 50")
	e.Epoch(10, []event.Event{event.NewStartContainment(7, 99, 10)})
	e.Epoch(11, []event.Event{event.NewEndContainment(7, 98, 10, 11)})
	e.Epoch(12, []event.Event{event.NewEndContainment(7, 99, 10, 12)})
	if len(*ms2) != 1 || (*ms2)[0].At != 12 {
		t.Fatalf("container backref: %+v", *ms2)
	}

	// Negated location backref: a start anywhere *else*. The epoch-21
	// repeat does not advance the run from 20 (same location) but anchors
	// a second run, so the epoch-22 event completes both.
	ms3, _ := collect(t, e, "SEQ(start(), start(!@1)) WITHIN 50")
	e.Epoch(20, []event.Event{event.NewStartLocation(31, 4, 20)})
	e.Epoch(21, []event.Event{event.NewStartLocation(31, 4, 21)})
	e.Epoch(22, []event.Event{event.NewStartLocation(31, 6, 22)})
	if len(*ms3) != 2 || (*ms3)[0].At != 22 || (*ms3)[1].At != 22 {
		t.Fatalf("negated backref: %+v", *ms3)
	}
}

func TestLevelAndCompanyAtoms(t *testing.T) {
	caseTag := epc.MustEncode(epc.Identity{Level: model.LevelCase, Company: 9, ItemRef: 1, Serial: 1})
	itemTag := epc.MustEncode(epc.Identity{Level: model.LevelItem, Company: 9, ItemRef: 1, Serial: 2})
	warmCase := epc.MustEncode(epc.Identity{Level: model.LevelCase, Company: 7, ItemRef: 1, Serial: 3})

	e := NewEngine(Config{})
	ms, _ := collect(t, e, "SEQ(start() & level(case) & company(9))")
	e.Epoch(1, []event.Event{
		event.NewStartLocation(itemTag, 1, 1),
		event.NewStartLocation(warmCase, 1, 1),
		event.NewStartLocation(caseTag, 1, 1),
		event.NewStartLocation(12345, 1, 1), // not EPC-encodable: level unknown
	})
	if len(*ms) != 1 || (*ms)[0].Object != caseTag {
		t.Fatalf("level/company filter: %+v", *ms)
	}
}

func TestTagAtomAndSingleStep(t *testing.T) {
	e := NewEngine(Config{})
	ms, _ := collect(t, e, "SEQ(tag(42))")
	e.Epoch(3, []event.Event{
		event.NewStartLocation(41, 1, 3),
		event.NewMissing(42, 1, 3),
	})
	if len(*ms) != 1 || (*ms)[0].Object != 42 || (*ms)[0].Start != 3 || (*ms)[0].At != 3 {
		t.Fatalf("single-step: %+v", *ms)
	}
	// A literal that keeps its text in the template matches by value.
	zeros, _ := collect(t, e, "SEQ(tag(0042))")
	e.Epoch(4, []event.Event{event.NewMissing(42, 1, 4)})
	if len(*zeros) != 1 || (*zeros)[0].Object != 42 {
		t.Fatalf("leading-zero literal: %+v", *zeros)
	}
}

func TestAnchorCannotSatisfyTwoSteps(t *testing.T) {
	e := NewEngine(Config{})
	// Both steps match the same event shape; one event must not match
	// both (skip-till-next-match: the anchor consumes step 1 only).
	ms, _ := collect(t, e, "SEQ(start(1), start(1)) WITHIN 10")
	e.Epoch(1, []event.Event{event.NewStartLocation(7, 1, 1)})
	if len(*ms) != 0 {
		t.Fatalf("anchor satisfied two steps: %+v", *ms)
	}
	e.Epoch(2, []event.Event{event.NewStartLocation(7, 1, 2)})
	// The epoch-2 event completes the run from 1 AND anchors a new run.
	if len(*ms) != 1 {
		t.Fatalf("want one match: %+v", *ms)
	}
	e.Epoch(3, []event.Event{event.NewStartLocation(7, 1, 3)})
	if len(*ms) != 2 {
		t.Fatalf("second run incomplete: %+v", *ms)
	}
}

func TestRunCapEviction(t *testing.T) {
	e := NewEngine(Config{maxRuns: 2})
	var evictions []model.Epoch
	e.testEvict = func(t1, _ model.Epoch) { evictions = append(evictions, t1) }
	ms, id := collect(t, e, "SEQ(start(1), start(2)) WITHIN 100")

	// Three anchors on distinct objects: the first (oldest) run evicts.
	e.Epoch(1, []event.Event{event.NewStartLocation(7, 1, 1)})
	e.Epoch(2, []event.Event{event.NewStartLocation(8, 1, 2)})
	e.Epoch(3, []event.Event{event.NewStartLocation(9, 1, 3)})
	if len(evictions) != 1 || evictions[0] != 1 {
		t.Fatalf("evictions = %v, want [1]", evictions)
	}
	// The evicted run's object can no longer complete.
	e.Epoch(4, []event.Event{event.NewStartLocation(7, 2, 4)})
	if len(*ms) != 0 {
		t.Fatalf("evicted run completed: %+v", *ms)
	}
	// The survivors can.
	e.Epoch(5, []event.Event{event.NewStartLocation(8, 2, 5)})
	e.Epoch(6, []event.Event{event.NewStartLocation(9, 2, 6)})
	if len(*ms) != 2 {
		t.Fatalf("survivors: %+v", *ms)
	}
	_, st, _ := e.Matches(id)
	if st.Evicted != 1 {
		t.Fatalf("Evicted = %d, want 1", st.Evicted)
	}
}

func TestMatchRingBackpressure(t *testing.T) {
	e := NewEngine(Config{maxMatches: 3})
	_, id := collect(t, e, "SEQ(missing())")
	for i := 1; i <= 5; i++ {
		e.Epoch(model.Epoch(i), []event.Event{event.NewMissing(7, 1, model.Epoch(i))})
	}
	ms, st, ok := e.Matches(id)
	if !ok {
		t.Fatal("Matches: unknown id")
	}
	if st.Matches != 5 || st.Dropped != 2 || st.Buffer != 3 {
		t.Fatalf("stats = %+v, want 5 total, 2 dropped, 3 buffered", st)
	}
	if len(ms) != 3 || ms[0].At != 3 || ms[2].At != 5 {
		t.Fatalf("ring = %+v, want oldest-dropped [3,4,5]", ms)
	}
}

func TestUnsubscribe(t *testing.T) {
	e := NewEngine(Config{})
	ms, id := collect(t, e, "SEQ(start(1), start(2)) WITHIN 100")
	e.Epoch(1, []event.Event{event.NewStartLocation(7, 1, 1)})
	e.Unsubscribe(id)
	e.Epoch(2, []event.Event{event.NewStartLocation(7, 2, 2)})
	if len(*ms) != 0 {
		t.Fatalf("match after unsubscribe: %+v", *ms)
	}
	if st := e.engineStats(); st.Subs != 0 || st.Runs != 0 {
		t.Fatalf("state after unsubscribe: %+v", st)
	}
	if _, _, ok := e.Matches(id); ok {
		t.Fatal("Matches succeeded for removed id")
	}
}

func TestSubscriptionsListing(t *testing.T) {
	e := NewEngine(Config{})
	_, err := e.Subscribe("SEQ(missing())")
	if err != nil {
		t.Fatal(err)
	}
	id2, err := e.Subscribe("SEQ(start())")
	if err != nil {
		t.Fatal(err)
	}
	subs := e.Subscriptions()
	if len(subs) != 2 || subs[0].ID >= subs[1].ID || subs[1].ID != id2 {
		t.Fatalf("Subscriptions() = %+v", subs)
	}
	if subs[1].Pattern != "SEQ(start())" {
		t.Fatalf("pattern echo = %q", subs[1].Pattern)
	}

	// Subscriptions of one template echo their own constants. Literals
	// that would not echo from their value (leading zeros) keep their
	// text in a template of their own.
	srcs := []string{
		"SEQ(missing() & tag(41), NOT start()) WITHIN 60",
		"SEQ(missing() & tag(18446744073709551615), NOT start()) WITHIN 60",
		"SEQ(missing() & tag( 007 ), NOT start()) WITHIN 60",
		"SEQ(start( 2 ) & tag(3),end(@1),  tag(4))",
	}
	for _, src := range srcs {
		if _, err := e.Subscribe(src); err != nil {
			t.Fatal(err)
		}
	}
	subs = e.Subscriptions()
	for i, src := range srcs {
		if got := subs[2+i].Pattern; got != src {
			t.Errorf("pattern echo = %q, want %q", got, src)
		}
	}
	if len(e.tmpls) != 5 {
		t.Errorf("%d templates, want 5: the first two new sources share one", len(e.tmpls))
	}
}

// TestRepeatedAtomRejected: a step's second tag, level or company atom
// would overwrite the first, so SEQ(missing() & tag(5) & tag(6)) would
// match tag 6 where no event satisfies both; Subscribe rejects the step.
func TestRepeatedAtomRejected(t *testing.T) {
	e := NewEngine(Config{})
	for _, tc := range []struct{ src, atom string }{
		{"SEQ(missing() & tag(5) & tag(6))", "tag"},
		{"SEQ(start(), level(case) & any() & level(item))", "level"},
		{"SEQ(company(3) & end() & company(4)) WITHIN 9", "company"},
	} {
		_, err := e.Subscribe(tc.src)
		if want := "step has more than one " + tc.atom + " atom"; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Subscribe(%q) = %v, want %q", tc.src, err, want)
		}
	}
	if subs := e.Subscriptions(); len(subs) != 0 {
		t.Errorf("rejected patterns registered %d subscriptions", len(subs))
	}
}

func TestDetectorsParse(t *testing.T) {
	l := Layout{ShelfFirst: 2, ShelfLast: 5, InboundFirst: 0, InboundLast: 1, Packaging: 6, ColdShelf: 2, ColdCompany: 9}
	for _, src := range []string{
		TheftPattern(40),
		MisroutePattern(l, 300),
		ColdChainPattern(l, 25),
	} {
		if _, err := Parse(src); err != nil {
			t.Errorf("detector %q: %v", src, err)
		}
	}
	// Cold shelf excluded from the warm anchor range.
	if got := ColdChainPattern(l, 25); !strings.Contains(got, "start(3..5)") {
		t.Errorf("cold shelf not excluded: %q", got)
	}
}

func TestTelemetryCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := NewEngine(Config{maxRuns: 1, maxMatches: 1})
	tel := e.Instrument(reg)
	_, err := e.Subscribe("SEQ(missing())")
	if err != nil {
		t.Fatal(err)
	}
	if _, err = e.Subscribe("SEQ(start(1), start(2)) WITHIN 10"); err != nil {
		t.Fatal(err)
	}
	e.Epoch(1, []event.Event{event.NewMissing(7, 1, 1), event.NewMissing(7, 1, 1)})
	e.Epoch(2, []event.Event{event.NewStartLocation(8, 1, 2), event.NewStartLocation(9, 1, 2)})
	if tel.Events.Value() != 4 {
		t.Errorf("Events = %d, want 4", tel.Events.Value())
	}
	if tel.Matches.Value() != 2 || tel.Dropped.Value() != 1 {
		t.Errorf("Matches/Dropped = %d/%d, want 2/1", tel.Matches.Value(), tel.Dropped.Value())
	}
	if tel.Evicted.Value() != 1 {
		t.Errorf("Evicted = %d, want 1", tel.Evicted.Value())
	}
	if tel.Subs.Value() != 2 || tel.Runs.Value() != 1 {
		t.Errorf("Subs/Runs = %d/%d, want 2/1", tel.Subs.Value(), tel.Runs.Value())
	}
}

// TestCompactionKeepsMatches: unsubscribing enough subscriptions mid-
// stream to compact the rows changes nothing for the survivors. They
// match and echo exactly as in an engine that only ever held them.
func TestCompactionKeepsMatches(t *testing.T) {
	tags := benchTags(64)
	var srcs []string
	for i := range 256 {
		g := tags[i%len(tags)]
		if i%2 == 0 {
			srcs = append(srcs, fmt.Sprintf("SEQ(missing() & tag(%d), NOT start()) WITHIN %d", g, 2+i%3))
		} else {
			srcs = append(srcs, fmt.Sprintf("SEQ(start() & tag(%d), end()) WITHIN %d", g, 18+i%5))
		}
	}
	batches, times, _ := benchStream(128, tags)
	churned, kept := NewEngine(Config{}), NewEngine(Config{})
	var survivors, dropped []int
	for i, src := range srcs {
		id, err := churned.Subscribe(src)
		if err != nil {
			t.Fatal(err)
		}
		if i%4 != 0 {
			dropped = append(dropped, id)
			continue
		}
		survivors = append(survivors, id)
		if _, err := kept.Subscribe(src); err != nil {
			t.Fatal(err)
		}
	}
	for k := range batches {
		if k == len(batches)/2 {
			for _, id := range dropped {
				churned.Unsubscribe(id)
			}
			if len(churned.rows) == len(srcs) {
				t.Fatal("unsubscribing three quarters of the rows did not compact them")
			}
		}
		churned.Epoch(times[k], batches[k])
		kept.Epoch(times[k], batches[k])
	}
	want := kept.Subscriptions()
	got := churned.Subscriptions()
	if len(got) != len(want) {
		t.Fatalf("%d subscriptions after churn, want %d", len(got), len(want))
	}
	matched := 0
	for i, id := range survivors {
		if got[i].ID != id || got[i].Pattern != want[i].Pattern || got[i].Matches != want[i].Matches || got[i].Runs != want[i].Runs {
			t.Fatalf("survivor %d: %+v, want %+v apart from the id", id, got[i], want[i])
		}
		gm, _, _ := churned.Matches(id)
		wm, _, _ := kept.Matches(want[i].ID)
		for k := range wm {
			wm[k].Sub = id
		}
		if !slices.Equal(gm, wm) {
			t.Fatalf("survivor %d: matches %+v, want %+v", id, gm, wm)
		}
		matched += len(gm)
	}
	if matched == 0 {
		t.Fatal("no survivor matched: the stream does not exercise the runs")
	}
}

// TestExpiryOrderAcrossWindows: runs of different WITHIN windows that
// close in one Epoch call resolve in (deadline, start) order, where
// start order is epoch, then event, then subscription. Events arrive at
// every other epoch, so most deadlines fall in the gaps and resolve
// together at the next call.
func TestExpiryOrderAcrossWindows(t *testing.T) {
	windows := []model.Epoch{3, 5, 2, 4, 5}
	e := NewEngine(Config{})
	type key struct {
		at, start model.Epoch
		obj       model.Tag
		sub       int
	}
	var got []key
	subOf := map[int]int{}
	for i, w := range windows {
		id, err := e.SubscribeFunc(fmt.Sprintf("SEQ(missing(), NOT start()) WITHIN %d", w), func(m Match) {
			got = append(got, key{m.At, m.Start, m.Object, subOf[m.Sub]})
		})
		if err != nil {
			t.Fatal(err)
		}
		subOf[id] = i
	}
	var want []key
	for now := model.Epoch(1); now <= 21; now += 2 {
		var evs []event.Event
		for j := range 3 {
			obj := model.Tag(100*int(now) + 3 - j) // event order is not tag order
			evs = append(evs, event.NewMissing(obj, 1, now))
			for i, w := range windows {
				want = append(want, key{now + w, now, obj, i})
			}
		}
		e.Epoch(now, evs)
	}
	e.Epoch(40, nil)
	// want is in start order; a stable sort by deadline gives the
	// resolution order.
	slices.SortStableFunc(want, func(a, b key) int { return cmp.Compare(a.at, b.at) })
	if !slices.Equal(got, want) {
		t.Fatalf("resolution order\n got %v\nwant %v", got, want)
	}
}
