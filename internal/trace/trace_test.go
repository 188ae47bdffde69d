package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"spire/internal/model"
)

func TestParseTags(t *testing.T) {
	cases := []struct {
		in      string
		all     bool
		tags    []model.Tag
		wantErr bool
	}{
		{in: ""},
		{in: "  "},
		{in: "all", all: true},
		{in: "ALL", all: true},
		{in: "7", tags: []model.Tag{7}},
		{in: "7,8, 9", tags: []model.Tag{7, 8, 9}},
		{in: "7,,8", tags: []model.Tag{7, 8}},
		{in: "0", wantErr: true},
		{in: "x", wantErr: true},
		{in: "7,-1", wantErr: true},
	}
	for _, tc := range cases {
		all, tags, err := ParseTags(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseTags(%q): want error", tc.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseTags(%q): %v", tc.in, err)
			continue
		}
		if all != tc.all || len(tags) != len(tc.tags) {
			t.Errorf("ParseTags(%q) = (%v, %v), want (%v, %v)", tc.in, all, tags, tc.all, tc.tags)
			continue
		}
		for i := range tags {
			if tags[i] != tc.tags[i] {
				t.Errorf("ParseTags(%q)[%d] = %d, want %d", tc.in, i, tags[i], tc.tags[i])
			}
		}
	}
}

// TestNilRecorderNoOps pins the disabled mode: every method of a nil
// *Recorder must be callable and inert.
func TestNilRecorderNoOps(t *testing.T) {
	var rec *Recorder
	rec.Record(Record{Tag: 1, Mech: MechDirectRead})
	rec.EndEpoch(Span{Epoch: 1})
	if rec.Traces(1) {
		t.Error("nil recorder must trace nothing")
	}
	if rec.Spans() != nil || rec.TagRecords(1) != nil || rec.TracedTags() != nil {
		t.Error("nil recorder must return no data")
	}
	if rec.Explain(1) != nil {
		t.Error("nil recorder must explain nothing")
	}
	var buf bytes.Buffer
	if err := rec.DumpJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Error("nil recorder must dump nothing")
	}
	if cfg := rec.Config(); cfg.Epochs != 0 || cfg.All || cfg.Tags != nil {
		t.Error("nil recorder config must be zero")
	}
}

// TestNoTagStarvation: the provenance window is bounded by recency, not
// by tag count, so a tag first recorded after 65 536 others is still
// explainable.
func TestNoTagStarvation(t *testing.T) {
	rec := New(Config{All: true})
	const late = model.Tag(1<<16 + 2)
	for g := model.Tag(1); g < late; g++ {
		rec.Record(Record{Epoch: 1, Tag: g, Mech: MechDirectRead, Loc: 1})
	}
	rec.Record(Record{Epoch: 2, Tag: late, Mech: MechDirectRead, Loc: 3})
	ex := rec.Explain(late)
	if ex == nil || ex.AsOf != 2 || ex.Location != model.LocationID(3).String() {
		t.Fatalf("tag seen after %d others: explanation %+v", late-1, ex)
	}
	if got := len(rec.TracedTags()); got != int(late) {
		t.Errorf("traced tags = %d, want %d", got, late)
	}
}

// TestWindowKeepsNewest: past its capacity the window drops the oldest
// records, whichever tag they belong to.
func TestWindowKeepsNewest(t *testing.T) {
	rec := New(Config{All: true})
	rec.Record(Record{Epoch: 0, Tag: 1, Mech: MechDirectRead})
	for i := 0; i < windowCap; i++ {
		rec.Record(Record{Epoch: model.Epoch(i + 1), Tag: 2, Mech: MechDirectRead})
	}
	if rec.Explain(1) != nil || len(rec.TagRecords(2)) != windowCap {
		t.Errorf("window past capacity: tag 1 %d records, tag 2 %d; want 0 and %d",
			len(rec.TagRecords(1)), len(rec.TagRecords(2)), windowCap)
	}
}

// TestTagRingBounded is the boundedness property test: however many
// records a tag accumulates, the retained window is exactly the window
// capacity, holding the newest records in order.
func TestTagRingBounded(t *testing.T) {
	rec := New(Config{All: true})
	const total = 2*windowCap + 7
	for i := 0; i < total; i++ {
		rec.Record(Record{Epoch: model.Epoch(i), Tag: 42, Mech: MechDirectRead, Aux: int32(i)})
	}
	recs := rec.TagRecords(42)
	if len(recs) != windowCap {
		t.Fatalf("window holds %d records, want capacity %d", len(recs), windowCap)
	}
	for i, r := range recs {
		if want := int32(total - windowCap + i); r.Aux != want {
			t.Fatalf("record %d Aux = %d, want %d (newest window, oldest first)", i, r.Aux, want)
		}
	}
}

// TestFlightRingBounded pins the same property for epoch spans.
func TestFlightRingBounded(t *testing.T) {
	const epochs = 16
	rec := New(Config{Epochs: epochs})
	const total = 5 * epochs
	for i := 1; i <= total; i++ {
		rec.EndEpoch(Span{Epoch: model.Epoch(i)})
	}
	spans := rec.Spans()
	if len(spans) != epochs {
		t.Fatalf("flight ring holds %d spans, want capacity %d", len(spans), epochs)
	}
	for i, sp := range spans {
		if want := model.Epoch(total - epochs + i + 1); sp.Epoch != want {
			t.Errorf("span %d epoch = %d, want %d", i, sp.Epoch, want)
		}
	}
}

func TestFilteredTracing(t *testing.T) {
	rec := New(Config{Tags: []model.Tag{5}})
	if !rec.Traces(5) || rec.Traces(6) {
		t.Fatal("filter must admit exactly the configured tags")
	}
	rec.Record(Record{Epoch: 1, Tag: 5, Mech: MechDirectRead})
	rec.Record(Record{Epoch: 1, Tag: 6, Mech: MechDirectRead})
	if len(rec.TagRecords(5)) != 1 || len(rec.TagRecords(6)) != 0 {
		t.Error("only filtered tags may retain records")
	}
}

// TestEndEpochCountersAndAnomalies: EndEpoch keeps the span's counts as
// the pipeline filled them and flags conflict storms, edge churn, and
// epoch gaps, each exactly at its threshold.
func TestEndEpochCountersAndAnomalies(t *testing.T) {
	rec := New(Config{})
	last := func() Span {
		spans := rec.Spans()
		return spans[len(spans)-1]
	}

	// One conflict short of a storm: kept, not flagged.
	rec.EndEpoch(Span{Epoch: 1, Conflicts: conflictStorm - 1})
	if sp := last(); sp.Conflicts != conflictStorm-1 || len(sp.Anomalies) != 0 {
		t.Errorf("below the storm threshold: %+v", sp)
	}

	rec.EndEpoch(Span{Epoch: 2, Conflicts: conflictStorm, EdgesCreated: 1, Confirmations: 1})
	if sp := last(); sp.Conflicts != conflictStorm || sp.EdgesCreated != 1 || sp.Confirmations != 1 {
		t.Errorf("span counters wrong: %+v", sp)
	}
	if sp := last(); len(sp.Anomalies) != 1 || sp.Anomalies[0] != AnomalyConflictStorm {
		t.Errorf("anomalies = %v, want [%s]", sp.Anomalies, AnomalyConflictStorm)
	}

	// Dropped edges one short of churn are not flagged; at the threshold,
	// with epoch 3 skipped, both churn and a gap are.
	rec.EndEpoch(Span{Epoch: 3, EdgesDropped: edgeChurn - 1})
	if sp := last(); len(sp.Anomalies) != 0 {
		t.Errorf("below the churn threshold: %+v", sp)
	}
	rec.EndEpoch(Span{Epoch: 5, EdgesDropped: edgeChurn})
	sp := last()
	wantAnoms := map[string]bool{AnomalyEdgeChurn: true, AnomalyEpochGap: true}
	if len(sp.Anomalies) != 2 || !wantAnoms[sp.Anomalies[0]] || !wantAnoms[sp.Anomalies[1]] {
		t.Errorf("anomalies = %v, want edge-churn + epoch-gap", sp.Anomalies)
	}
}

func TestDumpJSONL(t *testing.T) {
	rec := New(Config{All: true})
	rec.Record(Record{Epoch: 1, Tag: 8, Mech: MechEdgeInference, Other: 7, Prob: 0.9})
	rec.Record(Record{Epoch: 1, Tag: 7, Mech: MechDirectRead, Loc: 0, Reader: 3})
	rec.Record(Record{Epoch: 1, Tag: 7, Mech: MechNodeInference, Loc: 2, Prob: 0.75, Aux: 3})
	rec.EndEpoch(Span{Epoch: 1, Readings: 10, Events: 2})

	var buf bytes.Buffer
	if err := rec.DumpJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var spans, records int
	var order []string // record lines as tag:mechanism: tags sorted, each oldest first
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		switch line["type"] {
		case "span":
			spans++
			if line["epoch"] != float64(1) || line["readings"] != float64(10) {
				t.Errorf("span line wrong: %v", line)
			}
		case "record":
			records++
			order = append(order, fmt.Sprint(line["tag"], ":", line["mechanism"]))
			if line["mechanism"] == "" || line["citation"] == "" {
				t.Errorf("record line lacks mechanism/citation: %v", line)
			}
		default:
			t.Errorf("unknown line type: %v", line)
		}
	}
	if spans != 1 || records != 3 {
		t.Errorf("dump has %d spans and %d records, want 1 and 3", spans, records)
	}
	if want := []string{"7:direct-read", "7:node-inference", "8:edge-inference"}; !slices.Equal(order, want) {
		t.Errorf("record order = %v, want %v", order, want)
	}
}

// TestDumpRendersLocationZero guards the LocationID-zero pitfall: location
// 0 is a real location and must be rendered for location-bearing
// mechanisms, while mechanisms without a location must not leak "L0".
func TestDumpRendersLocationZero(t *testing.T) {
	rec := New(Config{All: true})
	rec.Record(Record{Epoch: 1, Tag: 7, Mech: MechDirectRead, Loc: 0})
	rec.Record(Record{Epoch: 1, Tag: 7, Mech: MechEdgeCreated, Loc: model.LocationNone, Other: 9})
	var buf bytes.Buffer
	if err := rec.DumpJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 lines, got %d", len(lines))
	}
	if !strings.Contains(lines[0], `"location"`) {
		t.Errorf("direct read at location 0 must render a location: %s", lines[0])
	}
	if strings.Contains(lines[1], `"location"`) {
		t.Errorf("edge creation must not render a location: %s", lines[1])
	}
}

// TestExplainChain builds the provenance of a small hierarchy by hand and
// requires Explain to walk it: the item's Rule I override chains into the
// case's direct read.
func TestExplainChain(t *testing.T) {
	rec := New(Config{All: true})
	const caseTag, itemTag = model.Tag(10), model.Tag(20)
	rec.Record(Record{Epoch: 5, Tag: caseTag, Mech: MechDirectRead, Loc: 1, Reader: 2})
	rec.Record(Record{Epoch: 5, Tag: itemTag, Mech: MechEdgeInference, Other: caseTag, Prob: 0.8, Aux: 5})
	rec.Record(Record{Epoch: 5, Tag: itemTag, Mech: MechRuleI, Loc: 1, Other: caseTag})

	ex := rec.Explain(itemTag)
	if ex == nil {
		t.Fatal("no explanation")
	}
	if ex.Tag != itemTag || ex.AsOf != 5 {
		t.Errorf("header wrong: %+v", ex)
	}
	if ex.Location != model.LocationID(1).String() {
		t.Errorf("location = %q, want %q", ex.Location, model.LocationID(1).String())
	}
	if ex.Container != caseTag {
		t.Errorf("container = %d, want %d", ex.Container, caseTag)
	}
	var mechs []string
	for _, s := range ex.Chain {
		mechs = append(mechs, fmt.Sprintf("%d:%s", s.Tag, s.Mechanism))
	}
	want := []string{
		fmt.Sprintf("%d:conflict-rule-I", itemTag),
		fmt.Sprintf("%d:edge-inference", itemTag),
		fmt.Sprintf("%d:direct-read", caseTag),
	}
	if len(mechs) != len(want) {
		t.Fatalf("chain = %v, want %v", mechs, want)
	}
	for i := range want {
		if mechs[i] != want[i] {
			t.Errorf("chain[%d] = %s, want %s", i, mechs[i], want[i])
		}
	}
	for _, s := range ex.Chain {
		if s.Citation == "" {
			t.Errorf("step without citation: %+v", s)
		}
	}

	// Rule II ends a containment: the explanation must report none.
	const loner = model.Tag(30)
	rec.Record(Record{Epoch: 6, Tag: loner, Mech: MechDirectRead, Loc: 2})
	rec.Record(Record{Epoch: 6, Tag: loner, Mech: MechRuleII, Loc: 2, Other: caseTag})
	if ex := rec.Explain(loner); ex == nil || ex.Container != model.NoTag {
		t.Errorf("rule II explanation must carry no container: %+v", ex)
	}

	// Unknown tags have no explanation.
	if rec.Explain(99) != nil {
		t.Error("explanation invented for an unrecorded tag")
	}
}

// TestExplainCycleTerminates guards the depth bound: mutually inherited
// locations (corrupt or adversarial records) must not hang Explain.
func TestExplainCycleTerminates(t *testing.T) {
	rec := New(Config{All: true})
	rec.Record(Record{Epoch: 1, Tag: 1, Mech: MechRuleI, Loc: 1, Other: 2})
	rec.Record(Record{Epoch: 1, Tag: 2, Mech: MechRuleI, Loc: 1, Other: 1})
	ex := rec.Explain(1)
	if ex == nil || len(ex.Chain) == 0 {
		t.Fatal("cycle must still yield the tag's own steps")
	}
	if len(ex.Chain) > 2*maxExplainDepth {
		t.Fatalf("chain unreasonably long under a record cycle: %d", len(ex.Chain))
	}
}

func TestMechanismNamesTotal(t *testing.T) {
	for m := MechDirectRead; m < numMechanisms; m++ {
		if m.String() == "none" || m.String() == "" {
			t.Errorf("mechanism %d has no slug", m)
		}
		if m.Citation() == "" {
			t.Errorf("mechanism %d (%s) has no citation", m, m)
		}
	}
}
