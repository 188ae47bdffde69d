package httpapi

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"spire/internal/trace"
)

// newTraceServer serves a handler with the provenance routes over a
// recorder preloaded with a small chain: case 10 read directly at
// location 1, item 20 inferred into it and inheriting via Rule I.
func newTraceServer(t *testing.T) *httptest.Server {
	t.Helper()
	rec := trace.New(trace.Config{All: true})
	rec.Record(trace.Record{Epoch: 5, Tag: 10, Mech: trace.MechDirectRead, Loc: 1, Reader: 2})
	rec.Record(trace.Record{Epoch: 5, Tag: 20, Mech: trace.MechEdgeInference, Other: 10, Prob: 0.8})
	rec.Record(trace.Record{Epoch: 5, Tag: 20, Mech: trace.MechRuleI, Loc: 1, Other: 10})
	rec.EndEpoch(trace.Span{Epoch: 5, Readings: 2})
	srv := httptest.NewServer(New(nil, nil).EnableTrace(rec))
	t.Cleanup(srv.Close)
	return srv
}

func TestExplainRoute(t *testing.T) {
	srv := newTraceServer(t)

	out := get(t, srv.URL+"/v1/explain/20", http.StatusOK)
	if out["tag"].(float64) != 20 {
		t.Errorf("tag = %v, want 20", out["tag"])
	}
	if out["container"].(float64) != 10 {
		t.Errorf("container = %v, want 10", out["container"])
	}
	chain, ok := out["chain"].([]any)
	if !ok || len(chain) != 3 {
		t.Fatalf("chain = %v, want 3 steps", out["chain"])
	}
	first := chain[0].(map[string]any)
	if first["mechanism"] != "conflict-rule-I" || first["citation"] == "" {
		t.Errorf("first step = %v, want Rule I with citation", first)
	}
	last := chain[2].(map[string]any)
	if last["mechanism"] != "direct-read" || last["tag"].(float64) != 10 {
		t.Errorf("last step = %v, want the case's direct read", last)
	}
}

func TestExplainRouteErrors(t *testing.T) {
	srv := newTraceServer(t)
	get(t, srv.URL+"/v1/explain/999", http.StatusNotFound)
	get(t, srv.URL+"/v1/explain/0", http.StatusBadRequest)
	get(t, srv.URL+"/v1/explain/puppy", http.StatusBadRequest)
	get(t, srv.URL+"/v1/explain/", http.StatusBadRequest)
	// The handler is GET-only like the rest of the API.
	resp, err := http.Post(srv.URL+"/v1/explain/20", "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST = %d, want %d", resp.StatusCode, http.StatusMethodNotAllowed)
	}
}

func TestDebugTraceRoute(t *testing.T) {
	srv := newTraceServer(t)
	resp, err := http.Get(srv.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/trace = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/jsonl") {
		t.Errorf("Content-Type = %q, want application/jsonl", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var spans, records int
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		switch line["type"] {
		case "span":
			spans++
		case "record":
			records++
		}
	}
	if spans != 1 || records != 3 {
		t.Errorf("dump has %d spans and %d records, want 1 and 3", spans, records)
	}
}
