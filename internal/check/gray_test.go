package check

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"wackamole/internal/faults"
	"wackamole/internal/gcs"
)

func TestGenerateGrayProducesValidShapes(t *testing.T) {
	s := Generate(21, GenConfig{Servers: 5, VIPs: 10, Steps: 20, Gray: true})
	shapes := 0
	active := map[int]bool{}
	for _, ev := range s.Events {
		switch ev.Op {
		case opShape:
			shapes++
			if active[ev.Server] {
				t.Fatalf("second shape on server %d before a clear: %v", ev.Server, ev)
			}
			active[ev.Server] = true
			if _, err := faults.ParseProgram(ev.Shape); err != nil {
				t.Fatalf("generated shape does not parse: %v: %v", ev, err)
			}
		case opClear:
			delete(active, ev.Server)
		}
	}
	if shapes == 0 {
		t.Fatal("20-step gray schedule generated no shape events")
	}
	if len(active) != 0 {
		t.Fatalf("schedule ends with %d uncleaned shapes (trailing clears missing)", len(active))
	}

	// Gray generation stays deterministic, and JSON round-trips the Shape
	// field.
	if b := Generate(21, GenConfig{Servers: 5, VIPs: 10, Steps: 20, Gray: true}); !reflect.DeepEqual(s, b) {
		t.Fatal("same seed produced different gray schedules")
	}
	blob, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Schedule
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Fatal("gray schedule changed across a JSON round trip")
	}
}

// Non-gray generation must not change for existing seeds: the gray draw
// range widening is gated on GenConfig.Gray.
func TestGenerateWithoutGrayHasNoShapes(t *testing.T) {
	s := Generate(7, GenConfig{Servers: 5, VIPs: 10, Steps: 12})
	for _, ev := range s.Events {
		if ev.Op == opShape || ev.Op == opClear || ev.Shape != "" {
			t.Fatalf("non-gray schedule contains gray event: %v", ev)
		}
	}
}

// TestGrayScheduleSatisfiesOracles is the gray plane's clean-run gate: a
// generated schedule of flap/graylink/slownode programs must pass every
// oracle, including the two gray ones armed from the schedule itself.
func TestGrayScheduleSatisfiesOracles(t *testing.T) {
	s := Generate(31, GenConfig{Servers: 4, VIPs: 8, Steps: 8, Gray: true})
	hasShape := false
	for _, ev := range s.Events {
		if ev.Op == opShape {
			hasShape = true
		}
	}
	if !hasShape {
		t.Skip("seed produced no shape events; adjust seed")
	}
	rep, err := Run(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violation != nil {
		t.Fatalf("gray schedule reported violation: %v", rep.Violation)
	}
}

// TestGraylinkRegatherKeepsViewsConsistent pins a regression the gray
// sweep found (shrunk from generated seed 21): 15% symmetric loss on one
// daemon's link forces token-loss re-gathers, and one of the intermediate
// rings dies before its group synchronization completes — the lossy daemon
// never installs it. Membership ops buffered under that dead ring used to
// be replayed into the next ring's sync at the old cohort only, so the
// cohort and the outsider emitted the same view ID with diverging member
// lists (a view-order violation). The run must now be violation-free.
func TestGraylinkRegatherKeepsViewsConsistent(t *testing.T) {
	s := Schedule{Seed: 21, Servers: 5, VIPs: 10, Events: []Event{
		{At: 10564 * time.Millisecond, Op: opShape, Server: 4,
			Shape: "graylink(rxloss=0.15,txloss=0.15,rxdelay=0s,txdelay=5ms)"},
		{At: 13745 * time.Millisecond, Op: opSever, Server: 0},
		{At: 17815 * time.Millisecond, Op: opSever, Server: 4},
	}}
	rep, err := Run(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violation != nil {
		t.Fatalf("interrupted-sync replay regression: %v", rep.Violation)
	}
}

// Artifacts must round-trip the detection regime: a phi-sweep artifact
// replayed under the fixed detector runs a different schedule and fails to
// reproduce.
func TestArtifactRoundTripsDetector(t *testing.T) {
	opts := Options{GCS: gcs.Config{Detector: gcs.DetectorPhi}}.withDefaults()
	rep := &Report{Schedule: Schedule{Seed: 3, Servers: 3, VIPs: 4}}
	var buf bytes.Buffer
	if err := WriteArtifact(&buf, NewArtifact(rep, opts, 0)); err != nil {
		t.Fatal(err)
	}
	back, err := ReadArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.runOptions()
	if err != nil {
		t.Fatal(err)
	}
	if got.GCS.Detector != gcs.DetectorPhi {
		t.Fatalf("detector lost in artifact round trip: %v", got.GCS.Detector)
	}

	// Fixed-detector artifacts omit the field entirely, so artifacts
	// written before it existed keep replaying bit-identically.
	buf.Reset()
	if err := WriteArtifact(&buf, NewArtifact(rep, Options{}.withDefaults(), 0)); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "detector") {
		t.Fatalf("fixed-detector artifact mentions the detector field:\n%s", buf.String())
	}
}

// Artifacts written while the phi detector's threshold and scan period were
// fields record them as phi_threshold and phi_check_ns, and those written
// while the run's timing bounds were options record balance_ns, settle_ns,
// stability_ns and jitter_window_ns. They must still load and replay to the
// verdict they recorded.
func TestLegacyPhiArtifactReplays(t *testing.T) {
	s := Schedule{
		Seed: 42, Servers: 3, VIPs: 6,
		Events: []Event{
			{At: 2 * time.Second, Op: opFail, Server: 1},
			{At: 9 * time.Second, Op: opRestore, Server: 1},
		},
	}
	cfg := gcs.TunedConfig()
	cfg.Detector = gcs.DetectorPhi
	opts := Options{GCS: cfg, Mutation: keepOnRelease{server: 1}}
	rep, err := Run(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violation == nil {
		t.Fatal("setup: the mutated run found no violation")
	}
	var buf bytes.Buffer
	if err := WriteArtifact(&buf, NewArtifact(rep, opts, 0)); err != nil {
		t.Fatal(err)
	}
	var doc map[string]map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	doc["options"]["phi_threshold"] = 8.0
	doc["options"]["phi_check_ns"] = (cfg.HeartbeatInterval / 2).Nanoseconds()
	// The retired timing fields, at the values every writer recorded.
	doc["options"]["balance_ns"] = (5 * time.Second).Nanoseconds()
	doc["options"]["settle_ns"] = settleBound(cfg).Nanoseconds()
	doc["options"]["stability_ns"] = (cfg.FaultDetectTimeout + cfg.DiscoveryTimeout + 2*time.Second).Nanoseconds()
	doc["options"]["jitter_window_ns"] = (2 * time.Second).Nanoseconds()
	legacy, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	art, err := ReadArtifact(bytes.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	got, err := art.runOptions()
	if err != nil {
		t.Fatal(err)
	}
	if got.GCS.Detector != gcs.DetectorPhi {
		t.Fatalf("legacy artifact lost its detector: %v", got.GCS.Detector)
	}
	replayed, match, err := Replay(art)
	if err != nil {
		t.Fatal(err)
	}
	if !match {
		t.Fatalf("legacy artifact replays to %v, recorded %v", replayed.Violation, art.Violation)
	}
}

// A malformed shape spec is a harness error, not a violation.
func TestRunRejectsMalformedShape(t *testing.T) {
	s := Schedule{Seed: 1, Servers: 3, VIPs: 4, Events: []Event{
		{At: time.Second, Op: opShape, Server: 0, Shape: "flap(duty=2)"},
	}}
	if _, err := Run(s, Options{}); err == nil {
		t.Fatal("malformed shape spec accepted")
	}
}

func TestGrayBoundsDerivation(t *testing.T) {
	opts := Options{}.withDefaults()
	s := Schedule{Seed: 1, Servers: 3, VIPs: 4, Events: []Event{
		{At: 1 * time.Second, Op: opShape, Server: 0, Shape: "flap(period=800ms,duty=0.5,jitter=0s)"},
		{At: 9 * time.Second, Op: opClear, Server: 0},
	}}
	pp, window, fs := grayBounds(s, opts)
	if pp <= 0 || fs <= 0 || window <= 0 {
		t.Fatalf("gray schedule left oracles disarmed: pp=%d window=%v fs=%d", pp, window, fs)
	}

	// Shape-free schedules keep both oracles disarmed.
	plain := Schedule{Seed: 1, Servers: 3, VIPs: 4, Events: []Event{
		{At: time.Second, Op: opFail, Server: 0},
	}}
	pp, _, fs = grayBounds(plain, opts)
	if pp != 0 || fs != 0 {
		t.Fatalf("shape-free schedule armed gray oracles: pp=%d fs=%d", pp, fs)
	}
}
