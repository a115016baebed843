package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"wackamole/internal/experiment"
	"wackamole/internal/experiment/runner"
	"wackamole/internal/invariant"
)

func TestRunGracefulProducesTable(t *testing.T) {
	var out strings.Builder
	code := run([]string{"-experiment", "graceful", "-trials", "1"}, &out)
	if code != 0 {
		t.Fatalf("exit code = %d", code)
	}
	if !strings.Contains(out.String(), "graceful") || !strings.Contains(out.String(), "| --- |") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestRunTable1(t *testing.T) {
	var out strings.Builder
	code := run([]string{"-experiment", "table1", "-trials", "1"}, &out)
	if code != 0 {
		t.Fatalf("exit code = %d", code)
	}
	for _, want := range []string{"Fault-detection timeout", "Default Spread", "Tuned Spread", "Measured notification mean"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("missing %q in output:\n%s", want, out.String())
		}
	}
}

func TestRunCommaSeparatedSelection(t *testing.T) {
	var out strings.Builder
	code := run([]string{"-experiment", "graceful,baselines", "-trials", "1"}, &out)
	if code != 0 {
		t.Fatalf("exit code = %d", code)
	}
	if !strings.Contains(out.String(), "voluntary") || !strings.Contains(out.String(), "baselines") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	var out strings.Builder
	if code := run([]string{"-experiment", "figure6"}, &out); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}

func TestRunRejectsBadTrials(t *testing.T) {
	var out strings.Builder
	if code := run([]string{"-trials", "0"}, &out); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}

// TestRunRejectsBadFlags: besides unknown flags, a flag that none of the
// selected experiments honours is a usage error rather than a silent no-op;
// one honouring experiment in the selection is enough.
func TestRunRejectsBadFlags(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "t.ndjson")
	for _, args := range [][]string{
		{"-bogus"},
		{"-experiment", "table1", "-trace", trace},
		{"-experiment", "graceful,table1", "-trace", trace},
		{"-experiment", "table1", "-invariants"},
		{"-experiment", "graceful", "-sizes", "2"},
		// -format is gone: figure5's -json rows carry every column.
		{"-experiment", "figure5", "-format", "csv"},
		// Availability-only flags under another experiment, and
		// availability in a list: it runs alone.
		{"-experiment", "figure5", "-clients", "10"},
		{"-clients", "10"},
		{"-experiment", "availability", "-sizes", "2"},
		{"-experiment", "availability,table1"},
	} {
		var out strings.Builder
		if code := run(args, &out); code != 2 {
			t.Errorf("run(%v) = %d, want usage error 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("run(%v) wrote output before rejecting the flag:\n%s", args, out.String())
		}
	}
	if _, err := os.Stat(trace); err == nil {
		t.Error("a rejected -trace still created the trace file")
	}
	for _, args := range [][]string{
		{"-experiment", "table1,graceful", "-invariants", "-trials", "1"},
		{"-experiment", "all", "-invariants", "-trials", "1"},
	} {
		var out strings.Builder
		if code := run(args, &out); code != 0 {
			t.Errorf("run(%v) = %d, want 0 (one selected experiment honours the flag)", args, code)
		}
		// One verdict for the whole run, after the last table.
		if n := strings.Count(out.String(), "invariants:"); n != 1 || !strings.HasSuffix(out.String(), "\ninvariants: all oracles held\n") {
			t.Errorf("run(%v): %d verdict lines, want one at the end:\n%s", args, n, out.String())
		}
	}
}

// TestInvariantsChangeNoRow: the monitors only observe, so figure5 and
// graceful print the same NDJSON rows with -invariants as without.
func TestInvariantsChangeNoRow(t *testing.T) {
	rows := func(extra ...string) string {
		var out strings.Builder
		args := append([]string{"-experiment", "figure5,graceful", "-sizes", "4", "-trials", "2", "-seed", "3", "-json"}, extra...)
		if code := run(args, &out); code != 0 {
			t.Fatalf("run(%v) = %d", args, code)
		}
		return out.String()
	}
	if off, on := rows(), rows("-invariants"); off != on {
		t.Fatalf("-invariants changed the rows:\n%s---\n%s", off, on)
	}
}

// TestReportViolations: every violating trial of every row gets one line
// naming its seed and point, and the count is what the exit code reads.
func TestReportViolations(t *testing.T) {
	v := func(detail string) *invariant.Violation {
		return &invariant.Violation{Oracle: "exactly-once", Detail: detail, At: time.Second}
	}
	rows := []experiment.Row{
		{Point: "tuned/n=4", Samples: []runner.Sample{{Seed: 5}, {Seed: 7924, Violation: v("two holders")}}},
		{Point: "n=2", Samples: []runner.Sample{{Seed: 27, Violation: v("no holder")}}},
		{Point: "tuned/n=4/seed=5"},
	}
	var w strings.Builder
	if n := reportViolations(&w, rows); n != 2 {
		t.Fatalf("reported %d violating trials, want 2", n)
	}
	want := "wacksim: invariant violation (seed 7924, point tuned/n=4): exactly-once at step 0 (+1s): two holders\n" +
		"wacksim: invariant violation (seed 27, point n=2): exactly-once at step 0 (+1s): no holder\n"
	if w.String() != want {
		t.Fatalf("report:\n%s\nwant:\n%s", w.String(), want)
	}
}

func TestRunIsDeterministicPerSeed(t *testing.T) {
	render := func() string {
		var out strings.Builder
		if code := run([]string{"-experiment", "graceful", "-trials", "2", "-seed", "42"}, &out); code != 0 {
			t.Fatalf("exit code = %d", code)
		}
		return out.String()
	}
	if a, b := render(), render(); a != b {
		t.Fatalf("same seed produced different reports:\n%s\n---\n%s", a, b)
	}
}

// TestParallelMatchesSerial pins the acceptance criterion that -parallel
// never changes the rendered tables: trials are independent simulations, so
// the worker count only affects wall-clock time.
func TestParallelMatchesSerial(t *testing.T) {
	render := func(workers string) string {
		var out strings.Builder
		args := []string{"-experiment", "figure5", "-trials", "1", "-seed", "7", "-parallel", workers}
		if code := run(args, &out); code != 0 {
			t.Fatalf("exit code = %d", code)
		}
		return out.String()
	}
	if serial, parallel := render("1"), render("8"); serial != parallel {
		t.Fatalf("-parallel changed the table:\n%s\n---\n%s", serial, parallel)
	}
}

// TestTraceFlagWritesStreamAndPerTrialRows runs a single-point figure5 sweep
// with -trace and checks both outputs: the trace file interleaves trial and
// event records, and every -json row carries per-trial phase breakdowns that
// sum to the trial's interruption.
func TestTraceFlagWritesStreamAndPerTrialRows(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.ndjson")
	var out strings.Builder
	code := run([]string{"-experiment", "figure5", "-sizes", "4", "-trials", "1",
		"-seed", "7", "-parallel", "8", "-json", "-trace", tracePath}, &out)
	if code != 0 {
		t.Fatalf("exit code = %d", code)
	}

	rows := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(rows) != 2 { // default/n=4 and tuned/n=4
		t.Fatalf("JSON rows = %d, want 2:\n%s", len(rows), out.String())
	}
	for _, line := range rows {
		var row struct {
			MeanSec  float64 `json:"mean_s"`
			PerTrial []struct {
				Seed     int64   `json:"seed"`
				ValueSec float64 `json:"value_s"`
				Events   int     `json:"events"`
				Phases   struct {
					Detection   float64 `json:"detection_s"`
					Membership  float64 `json:"membership_s"`
					StateSync   float64 `json:"state_sync_s"`
					ARPTakeover float64 `json:"arp_takeover_s"`
				} `json:"phases"`
			} `json:"per_trial"`
		}
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("invalid JSON row %q: %v", line, err)
		}
		if len(row.PerTrial) != 1 {
			t.Fatalf("per_trial entries = %d, want 1: %s", len(row.PerTrial), line)
		}
		tr := row.PerTrial[0]
		sum := tr.Phases.Detection + tr.Phases.Membership + tr.Phases.StateSync + tr.Phases.ARPTakeover
		if diff := sum - tr.ValueSec; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("phases sum %v != value %v: %s", sum, tr.ValueSec, line)
		}
		if tr.Events == 0 {
			t.Fatalf("trial carried no events: %s", line)
		}
	}

	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	trials, events := 0, 0
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec struct {
			Record string `json:"record"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("invalid trace line %q: %v", line, err)
		}
		switch rec.Record {
		case "trial":
			trials++
		case "event":
			events++
		default:
			t.Fatalf("unknown record: %s", line)
		}
	}
	if trials != 2 || events == 0 {
		t.Fatalf("trace stream: %d trials, %d events", trials, events)
	}
}

// TestJSONOutputIsValidNDJSON checks that -json emits one parseable object
// per row, carrying the statistics and the protocol-activity counters.
func TestJSONOutputIsValidNDJSON(t *testing.T) {
	var out strings.Builder
	code := run([]string{"-experiment", "graceful,load", "-trials", "1", "-json"}, &out)
	if code != 0 {
		t.Fatalf("exit code = %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 5 { // 4 graceful sizes + ≥1 load point
		t.Fatalf("only %d NDJSON lines:\n%s", len(lines), out.String())
	}
	sawMetrics := false
	for _, line := range lines {
		var row struct {
			Experiment string             `json:"experiment"`
			Point      string             `json:"point"`
			Trials     int                `json:"trials"`
			MeanSec    float64            `json:"mean_s"`
			Metrics    map[string]float64 `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("invalid JSON line %q: %v", line, err)
		}
		if row.Experiment == "" || row.Point == "" || row.Trials != 1 {
			t.Fatalf("incomplete row: %q", line)
		}
		if row.Metrics["frames_sent"] > 0 {
			sawMetrics = true
		}
	}
	if !sawMetrics {
		t.Fatal("no row carried a nonzero frames_sent counter")
	}
}

// TestAvailabilityTableOutput: the table, then the verdict, then the
// registry that -prom - appends to stdout.
func TestAvailabilityTableOutput(t *testing.T) {
	var out strings.Builder
	code := run([]string{"-experiment", "availability", "-clients", "50", "-think", "200ms", "-trials", "1", "-pre", "2s",
		"-invariants", "-prom", "-"}, &out)
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
	last := -1
	for _, want := range []string{"## Request-level availability", "conns lost", "recovery",
		"\ninvariants: all oracles held\n", "# TYPE load_requests_total counter"} {
		i := strings.Index(out.String(), want)
		if i < 0 || i < last {
			t.Errorf("output missing %q, or out of order:\n%s", want, out.String())
		}
		last = i
	}
}

func TestAvailabilityJSONAndProm(t *testing.T) {
	prom := filepath.Join(t.TempDir(), "metrics.prom")
	var out strings.Builder
	code := run([]string{"-experiment", "availability", "-clients", "50", "-think", "200ms", "-trials", "2",
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

func TestAvailabilityTraceArtifact(t *testing.T) {
	dir := t.TempDir()
	trace, prom := filepath.Join(dir, "trace.ndjson"), filepath.Join(dir, "metrics.prom")
	var out strings.Builder
	code := run([]string{"-experiment", "availability", "-clients", "20", "-think", "200ms", "-trials", "1",
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

func TestAvailabilityDeterministic(t *testing.T) {
	runOnce := func(parallel string) string {
		var out strings.Builder
		code := run([]string{"-experiment", "availability", "-clients", "60", "-mode", "open", "-rps", "300",
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

func TestAvailabilityUsageErrors(t *testing.T) {
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
		args = append([]string{"-experiment", "availability"}, args...)
		var out strings.Builder
		if code := run(args, &out); code != 2 {
			t.Errorf("run(%v) = %d, want usage error 2", args, code)
		}
	}
}
