package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wackamole/internal/check"
	"wackamole/internal/invariant"
)

func TestCleanSweepJSON(t *testing.T) {
	var buf bytes.Buffer
	code := run([]string{"-seeds", "2", "-steps", "6", "-servers", "3", "-vips", "6", "-json"}, &buf)
	if code != 0 {
		t.Fatalf("clean sweep exited %d: %s", code, buf.String())
	}
	var summary struct {
		Seeds      int                `json:"seeds"`
		Violations int                `json:"violations"`
		Clean      bool               `json:"clean"`
		Counters   map[string]float64 `json:"counters"`
	}
	if err := json.Unmarshal(buf.Bytes(), &summary); err != nil {
		t.Fatalf("bad JSON summary: %v\n%s", err, buf.String())
	}
	if !summary.Clean || summary.Violations != 0 || summary.Seeds != 2 {
		t.Fatalf("unexpected summary: %+v", summary)
	}
	if summary.Counters["check_schedules_total"] != 2 {
		t.Fatalf("counters not reported: %+v", summary.Counters)
	}
	if summary.Counters["check_steps_total"] != 12 {
		t.Fatalf("step counter wrong: %+v", summary.Counters)
	}
	if strings.Contains(buf.String(), `"dropped"`) {
		t.Fatalf("short sweep reports forgotten monitor entries: %s", buf.String())
	}
}

// A schedule long enough to outgrow the monitor's bounds (generated seed 11
// at 96 steps forgets 11 entries) must say so in both output forms.
func TestDroppedReported(t *testing.T) {
	args := []string{"-seed", "11", "-seeds", "1", "-steps", "96"}
	var text bytes.Buffer
	if code := run(args, &text); code != 0 {
		t.Fatalf("sweep exited %d: %s", code, text.String())
	}
	if !strings.Contains(text.String(), "dropped 11 ") {
		t.Fatalf("text output lacks the dropped count:\n%s", text.String())
	}
	var js bytes.Buffer
	if code := run(append(args, "-json"), &js); code != 0 {
		t.Fatalf("sweep exited %d: %s", code, js.String())
	}
	var summary struct {
		Dropped uint64 `json:"dropped"`
	}
	if err := json.Unmarshal(js.Bytes(), &summary); err != nil {
		t.Fatalf("bad JSON summary: %v\n%s", err, js.String())
	}
	if summary.Dropped != 11 {
		t.Fatalf("JSON dropped = %d, want 11: %s", summary.Dropped, js.String())
	}
}

func TestMutationSweepShrinksWritesAndReplays(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	code := run([]string{"-seeds", "1", "-seed", "4", "-steps", "12", "-servers", "3", "-vips", "6",
		"-mutate", "keep-on-release:1", "-shrink", "-out", dir, "-json"}, &buf)
	if code != 1 {
		t.Fatalf("mutated sweep exited %d (want 1): %s", code, buf.String())
	}
	var summary struct {
		Violations int      `json:"violations"`
		Artifacts  []string `json:"artifacts"`
	}
	if err := json.Unmarshal(buf.Bytes(), &summary); err != nil {
		t.Fatalf("bad JSON summary: %v\n%s", err, buf.String())
	}
	if summary.Violations != 1 || len(summary.Artifacts) != 1 {
		t.Fatalf("unexpected summary: %+v", summary)
	}
	path := summary.Artifacts[0]
	if filepath.Dir(path) != dir {
		t.Fatalf("artifact %s not in -out dir %s", path, dir)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("artifact missing: %v", err)
	}

	var replayOut bytes.Buffer
	code = run([]string{"-replay", path, "-json"}, &replayOut)
	if code != 0 {
		t.Fatalf("replay exited %d: %s", code, replayOut.String())
	}
	var rep struct {
		Match bool `json:"match"`
	}
	if err := json.Unmarshal(replayOut.Bytes(), &rep); err != nil {
		t.Fatalf("bad replay JSON: %v\n%s", err, replayOut.String())
	}
	if !rep.Match {
		t.Fatalf("replay did not reproduce the violation: %s", replayOut.String())
	}
}

// TestForeignClaimArtifactReplays pins the end-to-end violation pipeline on
// a deterministic fault program rather than a generated sweep: a backend
// deliberately broken to keep released addresses (keep-on-release) makes the
// departed, then isolated, server 1 hold virtual addresses while nothing in
// its partition component is in service — the foreign-claim oracle. The
// hand-written artifact must replay to the identical violation through the
// `wackcheck -replay` command path.
func TestForeignClaimArtifactReplays(t *testing.T) {
	var s check.Schedule
	if err := json.Unmarshal([]byte(`{"seed": 7, "servers": 3, "vips": 4, "events": [
		{"at_ns": 1000000000, "op": "leave", "server": 1},
		{"at_ns": 2000000000, "op": "partition", "mask": 2}]}`), &s); err != nil {
		t.Fatal(err)
	}
	mutation, err := check.ParseMutation("keep-on-release:1")
	if err != nil {
		t.Fatal(err)
	}
	opts := check.Options{Mutation: mutation}
	rep, err := check.Run(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violation == nil {
		t.Fatal("broken backend went undetected")
	}
	if rep.Violation.Oracle != "foreign-claim" {
		t.Fatalf("oracle = %s (%v), want foreign-claim", rep.Violation.Oracle, rep.Violation)
	}
	if !strings.Contains(rep.Violation.Detail, "no node in component") {
		t.Fatalf("unexpected detail: %v", rep.Violation)
	}

	path := filepath.Join(t.TempDir(), "foreign-claim.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := check.WriteArtifact(f, check.NewArtifact(rep, opts, 0)); err != nil {
		f.Close()
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if code := run([]string{"-replay", path, "-json"}, &out); code != 0 {
		t.Fatalf("replay exited %d: %s", code, out.String())
	}
	var replay struct {
		Match    bool                 `json:"match"`
		Observed *invariant.Violation `json:"observed"`
	}
	if err := json.Unmarshal(out.Bytes(), &replay); err != nil {
		t.Fatalf("bad replay JSON: %v\n%s", err, out.String())
	}
	if !replay.Match {
		t.Fatalf("replay did not reproduce the violation: %s", out.String())
	}
	if replay.Observed == nil || replay.Observed.Oracle != "foreign-claim" {
		t.Fatalf("replayed oracle = %+v, want foreign-claim", replay.Observed)
	}
}

func TestUsageErrors(t *testing.T) {
	var buf bytes.Buffer
	if code := run([]string{"-seeds", "0"}, &buf); code != 2 {
		t.Fatalf("zero seeds accepted (exit %d)", code)
	}
	if code := run([]string{"-mutate", "bogus"}, &buf); code != 2 {
		t.Fatalf("bogus mutation accepted (exit %d)", code)
	}
	if code := run([]string{"-replay", filepath.Join(t.TempDir(), "missing.json")}, &buf); code != 2 {
		t.Fatalf("missing replay file accepted (exit %d)", code)
	}
	for _, n := range []string{"1", "65"} {
		if code := run([]string{"-servers", n}, &buf); code != 2 {
			t.Fatalf("-servers %s accepted (exit %d)", n, code)
		}
	}
}

func TestTextOutputListsCounters(t *testing.T) {
	var buf bytes.Buffer
	code := run([]string{"-seeds", "1", "-steps", "4", "-servers", "3", "-vips", "4"}, &buf)
	if code != 0 {
		t.Fatalf("sweep exited %d: %s", code, buf.String())
	}
	for _, want := range []string{"0 violations", "check_schedules_total", "check_steps_total"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("text output missing %q:\n%s", want, buf.String())
		}
	}
}
