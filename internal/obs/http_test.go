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

// TestHandlerNilRegistry pins /metrics without a registry: the counter map
// alone, as sorted typed families in the exposition format.
func TestHandlerNilRegistry(t *testing.T) {
	h := NewHandler(func() map[string]uint64 {
		return map[string]uint64{"zeta": 3, "alpha": 1, "mid_depth": 2}
	}, nil, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	want := "# TYPE alpha counter\nalpha 1\n# TYPE mid_depth gauge\nmid_depth 2\n# TYPE zeta counter\nzeta 3\n"
	if body := rec.Body.String(); body != want {
		t.Fatalf("metrics =\n%s\nwant\n%s", body, want)
	}
	if ct := rec.Header().Get("Content-Type"); ct != metrics.ContentType {
		t.Fatalf("content type = %q", ct)
	}
}

func TestHandlerNilCollaborators(t *testing.T) {
	h := NewHandler(nil, nil, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK || rec.Body.Len() != 0 {
		t.Fatalf("empty metrics: code %d, body %q", rec.Code, rec.Body.String())
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

// TestHandlerPrometheusDialect pins the upgraded /metrics: with a registry
// installed the endpoint serves text exposition format 0.0.4 carrying both
// the legacy counters (as counter families) and the registry's histograms.
func TestHandlerPrometheusDialect(t *testing.T) {
	r := metrics.New()
	r.Histogram("gcs_token_rotation_seconds", "", metrics.L("node", "d1")).Observe(0.002)
	h := NewHandler(func() map[string]uint64 {
		return map[string]uint64{"gcs_tokens_forwarded": 41}
	}, nil, r)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != metrics.ContentType {
		t.Fatalf("content type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE gcs_tokens_forwarded counter",
		"gcs_tokens_forwarded 41",
		"# TYPE gcs_token_rotation_seconds histogram",
		`gcs_token_rotation_seconds_count{node="d1"} 1`,
		`le="+Inf"`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
}

// TestPrometheusLegacyCollisionsAndGauges pins two exposition rules: a
// legacy key that collides with a registry family name (or a histogram's
// derived _bucket/_sum/_count names) is dropped so no duplicate TYPE or
// sample lines reach a strict parser, and level-like legacy keys are typed
// gauge rather than counter.
func TestPrometheusLegacyCollisionsAndGauges(t *testing.T) {
	r := metrics.New()
	r.Counter("gcs_tokens_forwarded", "").Add(9)
	r.Histogram("gcs_token_rotation_seconds", "").Observe(0.002)
	h := NewHandler(func() map[string]uint64 {
		return map[string]uint64{
			"gcs_tokens_forwarded":             41, // collides with registry counter
			"gcs_token_rotation_seconds_count": 7,  // collides with histogram sample
			"obs_events_buffered":              3,  // a level, not a count
			"gcs_data_sent":                    5,  // plain counter survives
		}
	}, nil, r)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()

	if n := strings.Count(body, "# TYPE gcs_tokens_forwarded "); n != 1 {
		t.Fatalf("gcs_tokens_forwarded TYPE lines = %d, want 1:\n%s", n, body)
	}
	if !strings.Contains(body, "gcs_tokens_forwarded 9") || strings.Contains(body, "gcs_tokens_forwarded 41") {
		t.Fatalf("collision resolved toward legacy value:\n%s", body)
	}
	if strings.Contains(body, "# TYPE gcs_token_rotation_seconds_count") {
		t.Fatalf("legacy key shadowed a histogram sample name:\n%s", body)
	}
	if !strings.Contains(body, "# TYPE obs_events_buffered gauge") {
		t.Fatalf("level-like legacy key not typed gauge:\n%s", body)
	}
	if !strings.Contains(body, "# TYPE gcs_data_sent counter") || !strings.Contains(body, "gcs_data_sent 5") {
		t.Fatalf("plain legacy counter missing:\n%s", body)
	}
}

func TestServerEndToEnd(t *testing.T) {
	tr := New(16, fixedNow())
	tr.Emit(Event{Source: SourceGCS, Kind: KindInstall, Node: "d1"})
	tr.Emit(Event{Source: SourceCore, Kind: KindAcquire, Node: "d1/wackd", Addr: "10.0.0.100"})
	srv, err := Serve("127.0.0.1:0", func() map[string]uint64 {
		return map[string]uint64{"obs_events_emitted": tr.Emitted()}
	}, tr, nil)
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
