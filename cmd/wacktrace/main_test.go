package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wackamole/internal/experiment"
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
		"trials consistent",
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
	for _, tc := range []struct {
		name, old, new, report string
	}{
		// Inflate one trial's reported interruption so the recomputed phases
		// can no longer sum to it.
		{"inflated interruption", `"value_s":`, `"value_s":9`, "phases sum to"},
		// Mark one trial's ring as having evicted events: its phases cannot
		// be recomputed from the lines that survive.
		{"evicted events", `"events":`, `"dropped":3,"events":`, "incomplete"},
	} {
		tampered := bytes.Replace(raw, []byte(tc.old), []byte(tc.new), 1)
		if bytes.Equal(tampered, raw) {
			t.Fatalf("%s: tamper had no effect", tc.name)
		}
		var out, errW bytes.Buffer
		if code := run(nil, bytes.NewReader(tampered), &out, &errW); code != 1 {
			t.Fatalf("%s: expected exit 1 on inconsistent trace, got %d\nstderr:\n%s", tc.name, code, errW.String())
		}
		if !strings.Contains(errW.String(), "inconsistent") || !strings.Contains(errW.String(), tc.report) {
			t.Errorf("%s: stderr missing %q report:\n%s", tc.name, tc.report, errW.String())
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
	if !strings.Contains(out.String(), "trials consistent") {
		t.Errorf("output missing consistency line:\n%s", out.String())
	}
}
