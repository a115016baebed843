package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wackamole/internal/metrics"
)

// TestHandlerNilCollaborators pins the degenerate handler: a nil registry
// serves an empty 200 /metrics, a nil tracer an empty event stream.
func TestHandlerNilCollaborators(t *testing.T) {
	h := NewHandler(nil, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK || rec.Body.Len() != 0 {
		t.Fatalf("empty metrics: code %d, body %q", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != metrics.ContentType {
		t.Fatalf("content type = %q", ct)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/events", nil))
	if rec.Body.Len() != 0 {
		t.Fatalf("nil tracer produced events: %q", rec.Body.String())
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/nope", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown path code = %d", rec.Code)
	}
}

// TestHandlerMetricsIsTheRegistry pins /metrics: text exposition format
// 0.0.4 carrying exactly the registry's families — func-backed counters read
// at scrape time next to ordinary instruments — each under one TYPE line.
func TestHandlerMetricsIsTheRegistry(t *testing.T) {
	r := metrics.New()
	forwarded := uint64(41)
	r.CounterFunc("gcs_tokens_forwarded", "token passes", func() uint64 { return forwarded })
	r.Histogram("gcs_token_rotation_seconds", "", metrics.L("node", "d1")).Observe(0.002)
	r.Histogram("gcs_token_rotation_seconds", "", metrics.L("node", "d2")).Observe(0.004)
	r.Gauge("obs_hlc_skew_ns", "").Set(5)
	h := NewHandler(nil, r)
	scrape := func() string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if ct := rec.Header().Get("Content-Type"); ct != metrics.ContentType {
			t.Fatalf("content type = %q", ct)
		}
		return rec.Body.String()
	}
	body := scrape()
	for _, want := range []string{
		"# HELP gcs_tokens_forwarded token passes\n# TYPE gcs_tokens_forwarded counter\ngcs_tokens_forwarded 41\n",
		"# TYPE gcs_token_rotation_seconds histogram\n",
		`gcs_token_rotation_seconds_count{node="d1"} 1`,
		`le="+Inf"`,
		"# TYPE obs_hlc_skew_ns gauge\nobs_hlc_skew_ns 5\n",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
	types := map[string]int{}
	for _, line := range strings.Split(body, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			types[f[2]]++
		}
	}
	if len(types) != 3 {
		t.Fatalf("families = %v, want the registry's three", types)
	}
	for name, n := range types {
		if n != 1 {
			t.Fatalf("family %s has %d TYPE lines, want 1:\n%s", name, n, body)
		}
	}
	forwarded = 42
	if body = scrape(); !strings.Contains(body, "gcs_tokens_forwarded 42\n") {
		t.Fatalf("func-backed counter not re-read at scrape time:\n%s", body)
	}
}

func TestServerEndToEnd(t *testing.T) {
	tr := New(16, fixedNow())
	tr.Emit(Event{Source: SourceGCS, Kind: KindInstall, Node: "d1"})
	tr.Emit(Event{Source: SourceCore, Kind: KindAcquire, Node: "d1/wackd", Addr: "10.0.0.100"})
	reg := metrics.New()
	reg.CounterFunc("obs_events_emitted", "", tr.Emitted)
	srv, err := ServeHandler("127.0.0.1:0", NewHandler(tr, reg))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "\nobs_events_emitted 2\n") {
		t.Fatalf("metrics = %s", body)
	}

	resp, err = client.Get("http://" + srv.Addr() + "/debug/events")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 2 {
		t.Fatalf("event lines = %d, want 2:\n%s", len(lines), body)
	}
	var ev Event
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Kind != KindAcquire || ev.Addr != "10.0.0.100" {
		t.Fatalf("event = %+v", ev)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Get("http://" + srv.Addr() + "/metrics"); err == nil {
		t.Fatal("server still serving after Close")
	}
}
