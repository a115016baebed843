package experiment

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"wackamole/internal/obs"
)

// tracedFigure5 runs a small traced sweep: one cluster size, both
// configurations, `trials` seeds each.
func tracedFigure5(t *testing.T, trials, workers int) []Row {
	t.Helper()
	rows, err := Sweep(figure5, Grid{Seed: 300, Trials: trials, Sizes: []int{4}}, Parallel(workers), WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2 (default and tuned)", len(rows))
	}
	return rows
}

func TestTracedTrialPhasesPartitionTheInterruption(t *testing.T) {
	rows := tracedFigure5(t, 2, 1)
	for _, r := range rows {
		if len(r.Samples) != 2 {
			t.Fatalf("%s: samples = %d, want 2", r.Point, len(r.Samples))
		}
		for _, s := range r.Samples {
			if s.Trace == nil {
				t.Fatalf("%s seed %d: traced sweep lost its trace", r.Point, s.Seed)
			}
			if len(s.Trace.Events) == 0 {
				t.Fatalf("%s seed %d: no events captured", r.Point, s.Seed)
			}
			// The phase boundaries are clamped into the measured gap, so the
			// four phases partition the interruption exactly.
			if got := s.Trace.Phases.Total(); got != s.Value {
				t.Fatalf("%s seed %d: phases sum to %v, interruption is %v",
					r.Point, s.Seed, got, s.Value)
			}
			// A real fail-over spends measurable time in detection and
			// membership (the Table-1 timeouts dominate the interruption).
			if s.Trace.Phases.Detection <= 0 || s.Trace.Phases.Membership <= 0 {
				t.Fatalf("%s seed %d: degenerate breakdown %+v",
					r.Point, s.Seed, s.Trace.Phases)
			}
		}
	}
}

func TestTracingDoesNotPerturbTheMeasurement(t *testing.T) {
	plain, err := Sweep(figure5, Grid{Seed: 300, Trials: 2, Sizes: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	traced := tracedFigure5(t, 2, 1)
	for i := range plain {
		if plain[i].Stat != traced[i].Stat {
			t.Fatalf("row %d: tracing changed the statistics:\nplain  %+v\ntraced %+v",
				i, plain[i].Stat, traced[i].Stat)
		}
	}
}

func TestTracedSweepParallelMatchesSerial(t *testing.T) {
	serial := tracedFigure5(t, 3, 1)
	parallel := tracedFigure5(t, 3, 8)

	var serialJSON, parallelJSON bytes.Buffer
	if err := WriteNDJSON(&serialJSON, serial); err != nil {
		t.Fatal(err)
	}
	if err := WriteNDJSON(&parallelJSON, parallel); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialJSON.Bytes(), parallelJSON.Bytes()) {
		t.Fatalf("parallel JSON rows differ from serial:\nserial:\n%s\nparallel:\n%s",
			serialJSON.String(), parallelJSON.String())
	}

	var serialTrace, parallelTrace bytes.Buffer
	if err := WriteTrace(&serialTrace, serial); err != nil {
		t.Fatal(err)
	}
	if err := WriteTrace(&parallelTrace, parallel); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialTrace.Bytes(), parallelTrace.Bytes()) {
		t.Fatal("parallel trace stream differs from serial")
	}
}

func TestWriteTraceShape(t *testing.T) {
	rows := tracedFigure5(t, 1, 1)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	trials, events := 0, 0
	var lastTrialPoint string
	for _, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad NDJSON line: %v\n%s", err, line)
		}
		switch rec["record"] {
		case "trial":
			trials++
			lastTrialPoint, _ = rec["point"].(string)
			if rec["experiment"] != "figure5" {
				t.Fatalf("trial record: %s", line)
			}
			phases, ok := rec["phases"].(map[string]any)
			if !ok {
				t.Fatalf("trial record has no phases: %s", line)
			}
			sum := phases["detection_s"].(float64) + phases["membership_s"].(float64) +
				phases["state_sync_s"].(float64) + phases["arp_takeover_s"].(float64)
			if diff := sum - rec["value_s"].(float64); diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("trial phases sum %v != value %v", sum, rec["value_s"])
			}
		case "event":
			events++
			// Every event is joined to its trial by (point, seed).
			if rec["point"] != lastTrialPoint {
				t.Fatalf("event before its trial record: %s", line)
			}
			if _, err := time.Parse(time.RFC3339Nano, rec["at"].(string)); err != nil {
				t.Fatalf("event timestamp: %v\n%s", err, line)
			}
		default:
			t.Fatalf("unknown record type: %s", line)
		}
	}
	if trials != 2 {
		t.Fatalf("trial records = %d, want 2", trials)
	}
	if events == 0 {
		t.Fatal("no event records")
	}
	// Untraced rows write nothing.
	plain, err := Sweep(figure5, Grid{Seed: 300, Trials: 1, Sizes: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteTrace(&buf, plain); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("untraced sweep produced trace output: %q", buf.String())
	}
}

// TestWriteTraceRoundTripsPhases: what WriteTrace writes is enough to
// recompute every trial's breakdown. Each trial record's gap and target,
// with the event lines that follow it, give back its phases, and they sum
// to its value_s (both within 1ms, the float-seconds encoding's slack).
func TestWriteTraceRoundTripsPhases(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tracedFigure5(t, 2, 1)); err != nil {
		t.Fatal(err)
	}
	const tolerance = time.Millisecond
	near := func(a, b time.Duration) bool { return (a - b).Abs() <= tolerance }
	var recs []TraceTrialRecord
	events := map[int][]obs.Event{} // by index into recs
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if strings.HasPrefix(line, `{"record":"trial"`) {
			var rec TraceTrialRecord
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatal(err)
			}
			recs = append(recs, rec)
			continue
		}
		var e obs.Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatal(err)
		}
		events[len(recs)-1] = append(events[len(recs)-1], e)
	}
	if len(recs) != 4 {
		t.Fatalf("trial records = %d, want 4", len(recs))
	}
	for i, rec := range recs {
		gs, err1 := time.Parse(time.RFC3339Nano, rec.GapStart)
		ge, err2 := time.Parse(time.RFC3339Nano, rec.GapEnd)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s seed=%d: gap %q..%q", rec.Point, rec.Seed, rec.GapStart, rec.GapEnd)
		}
		got := obs.FailoverBreakdown(events[i], gs, ge, rec.Target)
		for j, d := range got.Phases() {
			if want := rec.Phases.Phases()[j]; !near(d, want) {
				t.Errorf("%s seed=%d: %s recomputed %v, recorded %v", rec.Point, rec.Seed, obs.PhaseNames[j], d, want)
			}
		}
		if value := time.Duration(rec.ValueSec * float64(time.Second)); !near(got.Total(), value) {
			t.Errorf("%s seed=%d: phases sum to %v, value_s is %v", rec.Point, rec.Seed, got.Total(), value)
		}
	}
}

func TestTraceCapturesTheFailoverNarrative(t *testing.T) {
	rows := tracedFigure5(t, 1, 1)
	for _, r := range rows {
		tr := r.Samples[0].Trace
		kinds := map[obs.Kind]int{}
		for _, e := range tr.Events {
			kinds[e.Kind]++
		}
		for _, want := range []obs.Kind{
			obs.KindFault, obs.KindGatherEnter, obs.KindInstall,
			obs.KindAcquire, obs.KindAnnounce, obs.KindARPSpoof,
		} {
			if kinds[want] == 0 {
				t.Errorf("%s: no %v event in the trace (kinds: %v)", r.Point, want, kinds)
			}
		}
		// The ownership timeline must show the probed address changing hands.
		timeline := obs.OwnershipTimeline(tr.Events)
		var target string
		for addr, spans := range timeline {
			if len(spans) >= 2 {
				target = addr
			}
		}
		if target == "" {
			t.Errorf("%s: no address changed hands in the timeline", r.Point)
		}
	}
}
