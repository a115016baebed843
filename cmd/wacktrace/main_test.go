package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wackamole/internal/experiment"
	"wackamole/internal/forensics"
	"wackamole/internal/obs"
)

// figure5Trace runs a real single-point traced Figure 5 sweep and returns
// its NDJSON stream — the exact bytes `wacksim -trace` would have written.
func figure5Trace(t *testing.T) []byte {
	t.Helper()
	figure5, err := experiment.Lookup("figure5")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := experiment.Sweep(figure5, experiment.Grid{Seed: 700, Trials: 2, Sizes: []int{3}}, experiment.WithTrace())
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	var buf bytes.Buffer
	if err := experiment.WriteTrace(&buf, rows); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	return buf.Bytes()
}

func TestAnalyzeRealTrace(t *testing.T) {
	raw := figure5Trace(t)
	folded := filepath.Join(t.TempDir(), "phases.folded")

	var out, errW bytes.Buffer
	code := run([]string{"-timelines", "-folded", folded}, bytes.NewReader(raw), &out, &errW)
	if code != 0 {
		t.Fatalf("run exited %d\nstderr:\n%s\nstdout:\n%s", code, errW.String(), out.String())
	}

	text := out.String()
	for _, w := range []string{
		"4 trials across 2 points", // 2 configs × 1 size × 2 trials
		"default/n=3",
		"tuned/n=3",
		"| detection |",
		"| membership |",
		"| state-sync |",
		"| arp-takeover |",
		"| total |",
		"## Interruption distribution",
		"## Ownership timelines",
		"trials explained",
	} {
		if !strings.Contains(text, w) {
			t.Errorf("output missing %q\n%s", w, text)
		}
	}

	fb, err := os.ReadFile(folded)
	if err != nil {
		t.Fatalf("folded output: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(fb)), "\n")
	if len(lines) == 0 {
		t.Fatal("folded output empty")
	}
	for _, l := range lines {
		// point;seed=N;phase weight
		parts := strings.SplitN(l, " ", 2)
		if len(parts) != 2 || strings.Count(parts[0], ";") != 2 {
			t.Fatalf("malformed folded line %q", l)
		}
	}
}

func TestConsistencyGateTripsOnTamperedTrace(t *testing.T) {
	raw := figure5Trace(t)
	// Mark one trial's ring as having evicted events: the lines that survive
	// cannot vouch for its fail-over.
	tampered := bytes.Replace(raw, []byte(`"events":`), []byte(`"dropped":3,"events":`), 1)
	if bytes.Equal(tampered, raw) {
		t.Fatal("tamper had no effect")
	}
	var out, errW bytes.Buffer
	if code := run(nil, bytes.NewReader(tampered), &out, &errW); code != 1 {
		t.Fatalf("expected exit 1 on a trace with evicted events, got %d\nstderr:\n%s", code, errW.String())
	}
	if !strings.Contains(errW.String(), "1 of 4 trials unexplained") || !strings.Contains(errW.String(), "incomplete") {
		t.Errorf("stderr missing the incomplete trial:\n%s", errW.String())
	}
}

// TestGateFailsWithoutInstallEvents: a trace whose install events are gone
// — what a producer that stopped emitting them would write — explains no
// trial, although every trial's phases still partition its gap. The gate
// exits 1 and names each trial.
func TestGateFailsWithoutInstallEvents(t *testing.T) {
	var kept []string
	for _, line := range strings.Split(string(figure5Trace(t)), "\n") {
		if !strings.Contains(line, `"kind":"install"`) {
			kept = append(kept, line)
		}
	}
	var out, errW bytes.Buffer
	if code := run(nil, strings.NewReader(strings.Join(kept, "\n")), &out, &errW); code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s", code, out.String())
	}
	if !strings.Contains(errW.String(), "4 of 4 trials unexplained") {
		t.Errorf("stderr: %s", errW.String())
	}
	for _, point := range []string{"default/n=3", "tuned/n=3"} {
		if n := strings.Count(errW.String(), point+" seed="); n != 2 {
			t.Errorf("stderr names %d trials of %s, want 2:\n%s", n, point, errW.String())
		}
	}
}

// TestMalformedGapsRejected: a gap that ends before it starts, or names no
// target, is a usage error, whether it comes from -gaps or from a trace's
// trial record.
func TestMalformedGapsRejected(t *testing.T) {
	dir := t.TempDir()
	writeCluster(t, dir)
	for _, tc := range []struct {
		name string
		gap  forensics.Gap
	}{
		{"end before start", forensics.Gap{Target: "10.0.0.100", Start: base.Add(5 * time.Second), End: base.Add(time.Second)}},
		{"no target", forensics.Gap{}},
	} {
		raw, err := json.Marshal([]forensics.Gap{{Target: "10.0.0.100", Start: base, End: base.Add(time.Second)}, tc.gap})
		if err != nil {
			t.Fatal(err)
		}
		gaps := filepath.Join(t.TempDir(), "gaps.json")
		if err := os.WriteFile(gaps, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		var out, errW bytes.Buffer
		if code := run([]string{"-gaps", gaps, dir}, nil, &out, &errW); code != 2 {
			t.Errorf("%s: -gaps exit %d, want 2", tc.name, code)
		}
		if !strings.Contains(errW.String(), "gap 1") {
			t.Errorf("%s: stderr does not name the gap: %s", tc.name, errW.String())
		}
	}

	raw := figure5Trace(t)
	var rec experiment.TraceTrialRecord
	if err := json.Unmarshal(raw[:bytes.IndexByte(raw, '\n')], &rec); err != nil {
		t.Fatal(err)
	}
	start, err := time.Parse(time.RFC3339Nano, rec.GapStart)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, old, new string }{
		{"end before start", `"gap_end":"` + rec.GapEnd, `"gap_end":"` + start.Add(-time.Second).Format(time.RFC3339Nano)},
		{"no target", `"target":"` + rec.Target + `"`, `"target":""`},
	} {
		tampered := bytes.Replace(raw, []byte(tc.old), []byte(tc.new), 1)
		if bytes.Equal(tampered, raw) {
			t.Fatalf("%s: tamper had no effect", tc.name)
		}
		var out, errW bytes.Buffer
		if code := run(nil, bytes.NewReader(tampered), &out, &errW); code != 2 {
			t.Errorf("%s: trace exit %d, want 2 (stderr: %s)", tc.name, code, errW.String())
		}
		if !strings.Contains(errW.String(), "line 1: trial record gap") {
			t.Errorf("%s: stderr does not name the record: %s", tc.name, errW.String())
		}
	}
}

func TestEmptyInputFails(t *testing.T) {
	var out, errW bytes.Buffer
	if code := run(nil, strings.NewReader(""), &out, &errW); code != 2 {
		t.Fatalf("expected exit 2 on empty input, got %d", code)
	}
}

func TestInputFromFile(t *testing.T) {
	raw := figure5Trace(t)
	path := filepath.Join(t.TempDir(), "trace.ndjson")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errW bytes.Buffer
	start := time.Now()
	if code := run([]string{path}, &out, &out, &errW); code != 0 {
		t.Fatalf("run exited %d\nstderr:\n%s", code, errW.String())
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("analysis unexpectedly slow: %v", elapsed)
	}
	if !strings.Contains(out.String(), "trials explained") {
		t.Errorf("output missing the gate line:\n%s", out.String())
	}
}

var base = time.Unix(1_700_000_000, 0).UTC()

func hlcAt(d time.Duration) obs.HLC {
	return obs.HLC{Wall: base.Add(d).UnixNano()}
}

// writeCluster dumps a two-survivor failover scenario into dir and returns
// the gaps.json path for it.
func writeCluster(t *testing.T, dir string) string {
	t.Helper()
	dump := func(node string, events []obs.Event) {
		tr := obs.New(256, func() time.Time { return base })
		for _, ev := range events {
			tr.Emit(ev)
		}
		f := obs.NewFlightRecorder(obs.FlightConfig{
			Dir: dir, Node: node, Tracer: tr,
			Now: func() time.Time { return base.Add(time.Hour) },
		})
		if _, err := f.Dump("test"); err != nil {
			t.Fatal(err)
		}
	}
	dump("a", []obs.Event{
		{At: base.Add(200 * time.Millisecond), HLC: hlcAt(200 * time.Millisecond),
			Source: obs.SourceGCS, Kind: obs.KindGatherEnter, Node: "a"},
		{At: base.Add(500 * time.Millisecond), HLC: hlcAt(500 * time.Millisecond),
			Source: obs.SourceGCS, Kind: obs.KindInstall, Node: "a"},
		{At: base.Add(800 * time.Millisecond), HLC: hlcAt(800 * time.Millisecond),
			Source: obs.SourceCore, Kind: obs.KindAcquire, Node: "a", Addr: "10.0.0.100"},
	})
	dump("c", []obs.Event{
		{At: base.Add(250 * time.Millisecond), HLC: hlcAt(250 * time.Millisecond),
			Source: obs.SourceGCS, Kind: obs.KindGatherEnter, Node: "c"},
	})

	gaps := []forensics.Gap{{Target: "10.0.0.100", Start: base, End: base.Add(900 * time.Millisecond)}}
	raw, err := json.Marshal(gaps)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "gaps.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBundlesReconstructAndGate(t *testing.T) {
	dir := t.TempDir()
	gaps := writeCluster(t, dir)
	merged := filepath.Join(t.TempDir(), "merged.ndjson")

	var out, errW bytes.Buffer
	code := run([]string{"-gaps", gaps, "-o", merged, "-require", "1", "-timelines", dir}, nil, &out, &errW)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errW.String())
	}
	s := out.String()
	for _, want := range []string{
		"2 bundles, 2 nodes, 4 events merged",
		"detector=a acquirer=a",
		"detection", "membership", "state-sync", "arp-takeover",
		"10.0.0.100",
		"1 of 1 gap(s) explained",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}

	first, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 {
		t.Fatal("merged timeline empty")
	}
	// Second run over the same bundles is byte-identical.
	merged2 := filepath.Join(t.TempDir(), "merged2.ndjson")
	if code := run([]string{"-gaps", gaps, "-o", merged2, dir}, nil, &out, &errW); code != 0 {
		t.Fatalf("second run exit %d: %s", code, errW.String())
	}
	second, err := os.ReadFile(merged2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("repeated merge not byte-identical")
	}
}

func TestBundlesRequireGateFails(t *testing.T) {
	dir := t.TempDir()
	gaps := writeCluster(t, dir)
	var out, errW bytes.Buffer
	if code := run([]string{"-gaps", gaps, "-require", "2", dir}, nil, &out, &errW); code != 1 {
		t.Fatalf("exit %d, want 1 (only one gap supplied)", code)
	}
	if !strings.Contains(errW.String(), "require 2") {
		t.Fatalf("stderr: %s", errW.String())
	}
}

// TestBundlesUnexplainedGapFails: a measured gap that no fail-over in the
// bundles accounts for — here one an hour after the last event, for an
// address nobody ever held — does not count towards -require, although its
// phases still partition it.
func TestBundlesUnexplainedGapFails(t *testing.T) {
	dir := t.TempDir()
	writeCluster(t, dir)
	raw, err := json.Marshal([]forensics.Gap{{Target: "10.0.0.200", Start: base.Add(time.Hour), End: base.Add(time.Hour + time.Second)}})
	if err != nil {
		t.Fatal(err)
	}
	gaps := filepath.Join(t.TempDir(), "gaps.json")
	if err := os.WriteFile(gaps, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errW bytes.Buffer
	if code := run([]string{"-gaps", gaps, "-require", "1", dir}, nil, &out, &errW); code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, out.String())
	}
	if !strings.Contains(errW.String(), "explained 0 of 1 gap(s), require 1") {
		t.Fatalf("stderr: %s", errW.String())
	}
	if !strings.Contains(out.String(), "unexplained") {
		t.Fatalf("report does not mark the gap unexplained:\n%s", out.String())
	}
}

func TestBundlesDetectGapsFallback(t *testing.T) {
	dir := t.TempDir()
	dump := func(node string, events []obs.Event) {
		tr := obs.New(64, func() time.Time { return base })
		for _, ev := range events {
			tr.Emit(ev)
		}
		f := obs.NewFlightRecorder(obs.FlightConfig{
			Dir: dir, Node: node, Tracer: tr, Now: func() time.Time { return base },
		})
		if _, err := f.Dump("test"); err != nil {
			t.Fatal(err)
		}
	}
	dump("a", []obs.Event{
		{At: base, HLC: hlcAt(0), Source: obs.SourceCore, Kind: obs.KindAcquire, Node: "a", Addr: "10.0.0.100"},
		{At: base.Add(time.Second), HLC: hlcAt(time.Second),
			Source: obs.SourceCore, Kind: obs.KindRelease, Node: "a", Addr: "10.0.0.100"},
	})
	// b takes over: it leaves the old ring, installs the new membership
	// and acquires the address inside the inferred gap.
	dump("b", []obs.Event{
		{At: base.Add(1100 * time.Millisecond), HLC: hlcAt(1100 * time.Millisecond),
			Source: obs.SourceGCS, Kind: obs.KindGatherEnter, Node: "b"},
		{At: base.Add(1300 * time.Millisecond), HLC: hlcAt(1300 * time.Millisecond),
			Source: obs.SourceGCS, Kind: obs.KindInstall, Node: "b"},
		{At: base.Add(1500 * time.Millisecond), HLC: hlcAt(1500 * time.Millisecond),
			Source: obs.SourceCore, Kind: obs.KindAcquire, Node: "b/1", Addr: "10.0.0.100"},
	})
	var out, errW bytes.Buffer
	code := run([]string{"-detect-gaps", "100ms", "-require", "1", dir}, nil, &out, &errW)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errW.String())
	}
	if !strings.Contains(out.String(), "unreachable 500ms") {
		t.Fatalf("output:\n%s", out.String())
	}
}

// TestLoaderUsageErrors: empty input, an empty bundle directory, a flag the
// chosen input does not honour, and a directory mixed with a file are usage
// errors.
func TestLoaderUsageErrors(t *testing.T) {
	dir := t.TempDir()
	gaps := writeCluster(t, dir)
	trace := filepath.Join(t.TempDir(), "trace.ndjson")
	if err := os.WriteFile(trace, figure5Trace(t), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{}, // stdin, here empty
		{t.TempDir()},
		{"-gaps", gaps, trace},
		{"-require", "1", trace},
		{"-folded", filepath.Join(t.TempDir(), "f"), dir},
		{dir, trace},
	} {
		var out, errW bytes.Buffer
		if code := run(args, strings.NewReader(""), &out, &errW); code != 2 {
			t.Errorf("run(%v) = %d, want usage error 2 (stderr: %s)", args, code, errW.String())
		}
	}
}

// TestWriteFoldedReportsWriteErrors: a failed write of the folded output
// is returned, not dropped.
func TestWriteFoldedReportsWriteErrors(t *testing.T) {
	trials, err := parseTrace(bytes.NewReader(figure5Trace(t)))
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFolded(failingWriter{}, trials); err == nil {
		t.Fatal("writeFolded swallowed the write error")
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }
