package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestRunTableOutput(t *testing.T) {
	var out bytes.Buffer
	code := run([]string{"-clients", "50", "-think", "200ms", "-trials", "1", "-pre", "2s"}, &out)
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
	for _, want := range []string{"Request-level availability", "conns lost", "recovery"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunJSONAndProm(t *testing.T) {
	prom := filepath.Join(t.TempDir(), "metrics.prom")
	var out bytes.Buffer
	code := run([]string{"-clients", "50", "-think", "200ms", "-trials", "2",
		"-pre", "2s", "-json", "-invariants", "-prom", prom}, &out)
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("NDJSON lines = %d, want 1 aggregate + 2 per-trial", len(lines))
	}
	var agg struct {
		Experiment string             `json:"experiment"`
		Trials     int                `json:"trials"`
		Extra      map[string]float64 `json:"extra"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &agg); err != nil {
		t.Fatalf("bad NDJSON: %v", err)
	}
	if agg.Experiment != "availability" || agg.Trials != 2 {
		t.Errorf("aggregate row = %+v", agg)
	}
	if agg.Extra["reset"] == 0 || agg.Extra["conns_lost"] == 0 {
		t.Errorf("aggregate extra missing takeover evidence: %v", agg.Extra)
	}
	// The Prometheus exposition must carry the request-latency family.
	text, err := os.ReadFile(prom)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(text), "# TYPE load_request_latency_seconds histogram") {
		t.Error("prom output missing load_request_latency_seconds histogram family")
	}
	if !strings.Contains(string(text), "load_requests_total") {
		t.Error("prom output missing load_requests_total counter family")
	}
	// The armed monitors observed the run and found nothing: the load run
	// doubles as a model-checking run.
	var deliveries float64
	for _, line := range strings.Split(string(text), "\n") {
		if v, ok := strings.CutPrefix(line, "invariant_delivery_events_total "); ok {
			deliveries, _ = strconv.ParseFloat(v, 64)
		}
	}
	if deliveries <= 0 {
		t.Error("prom output shows no invariant_delivery_events_total: the monitors observed nothing")
	}
	if !strings.Contains(string(text), "\ninvariant_violations_total 0\n") {
		t.Error("prom output lacks invariant_violations_total 0")
	}
}

func TestRunTraceArtifact(t *testing.T) {
	dir := t.TempDir()
	trace, prom := filepath.Join(dir, "trace.ndjson"), filepath.Join(dir, "metrics.prom")
	var out bytes.Buffer
	code := run([]string{"-clients", "20", "-think", "200ms", "-trials", "1",
		"-pre", "1s", "-json", "-trace", trace, "-prom", prom}, &out)
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
	text, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(text), `"record":"trial"`) {
		t.Error("trace artifact missing trial record")
	}
	if !strings.Contains(string(text), `"kind":"acquire"`) {
		t.Error("trace artifact missing the takeover's acquire events")
	}
	// Flow activity is counted on the registry, not traced.
	text, err = os.ReadFile(prom)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]float64{}
	for _, line := range strings.Split(string(text), "\n") {
		if name, v, ok := strings.Cut(line, " "); ok && strings.HasPrefix(name, "flow_") {
			counts[name], _ = strconv.ParseFloat(v, 64)
		}
	}
	for _, name := range []string{"flow_conns_opened_total", "flow_retransmits_total", "flow_conns_reset_total"} {
		if counts[name] <= 0 {
			t.Errorf("%s = %v, want the trial's flow activity counted (flow series: %v)", name, counts[name], counts)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	runOnce := func(parallel string) string {
		var out bytes.Buffer
		code := run([]string{"-clients", "60", "-mode", "open", "-rps", "300",
			"-trials", "2", "-pre", "2s", "-parallel", parallel, "-json"}, &out)
		if code != 0 {
			t.Fatalf("exit %d:\n%s", code, out.String())
		}
		return out.String()
	}
	if a, b := runOnce("1"), runOnce("2"); a != b {
		t.Fatalf("output depends on worker count:\n%s\nvs\n%s", a, b)
	}
}

func TestRunUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-mode", "bogus"},
		{"-fault", "bogus"},
		{"-topology", "bogus"},
		{"-trials", "0"},
		// Gray-fault flags under a clean fault.
		{"-fault", "nic", "-shape", "flap"},
		{"-fault", "crash", "-gray-window", "5s"},
	}
	for _, args := range cases {
		var out bytes.Buffer
		if code := run(args, &out); code != 2 {
			t.Errorf("run(%v) = %d, want usage error 2", args, code)
		}
	}
}
