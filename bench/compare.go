package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compare.go judges result file B against result file A, workload by
// workload and end-to-end metric by metric, with the bounds of
// BENCHMARK.json (spec.go).
//
// Verdicts:
//
//	ok          B is no worse than A by more than the bound
//	worse       B is worse than A by more than the bound
//	changed     a simulated value differs under one seed; a change that only
//	            touches host speed must leave every one of them identical
//	unresolved  a host-time metric whose repeats inside one run — the passes
//	            (bench.pass_spread), or the set-ups for setup_s — spread
//	            wider than the bound, so two files cannot settle it
//
// worse and changed make the exit code non-zero.

// timeBased are the end-to-end metrics that carry host-time noise, the only
// ones a run's own spread says anything about.
var timeBased = map[string]bool{"setup_s": true, "ops_per_s": true, "op_ms_p50": true, "sim_s_per_wall_s": true}

// ownSpread is how far a run's repeated measurements of a time-based metric
// lie apart: the set-ups for setup_s, the passes for the rest.
func ownSpread(r *result, metric string) float64 {
	if metric == "setup_s" {
		return r.Notes["setup_spread"]
	}
	return r.Metrics["bench.pass_spread"].Value
}

func loadResults(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc resultFile
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// worseBy returns how much worse b is than a as a share of a, positive when
// worse, given the metric's direction.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		if b == a {
			return 0
		}
		a = 1 // absolute difference when there is no base
	}
	d := (b - a) / a
	if a < 0 {
		d = -d
	}
	if better == "higher" {
		d = -d
	}
	return d
}

// repeatsExactly reports whether two runs on the same inputs must agree on
// the metric to the last digit.
func repeatsExactly(spec metricSpec) bool {
	return spec.Clock == "sim" || spec.Name == "failed_share"
}

// judge returns the verdict for one metric.
func judge(spec metricSpec, a, b float64, sameInputs bool, spreadA, spreadB float64) string {
	if repeatsExactly(spec) && sameInputs {
		switch {
		case a == b:
			return "ok"
		case worseBy(a, b, spec.Better) > 0:
			return "worse"
		default:
			return "changed"
		}
	}
	if spec.Bound == 0 {
		// Only ever compared exactly, and the inputs differ.
		return "ok"
	}
	if timeBased[spec.Name] && (spreadA > spec.Bound || spreadB > spec.Bound) {
		return "unresolved"
	}
	if worseBy(a, b, spec.Better) > spec.Bound {
		return "worse"
	}
	return "ok"
}

// compareFiles prints the comparison and returns the process exit code.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := loadResults(pathA)
	if err != nil {
		fatalf("%v", err)
	}
	b, err := loadResults(pathB)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(w, "# A %s: commit=%s seed=%d seconds=%d cpu=%q\n", pathA, a.Header.Commit, a.Header.Seed, a.Header.Seconds, a.Header.CPUModel)
	fmt.Fprintf(w, "# B %s: commit=%s seed=%d seconds=%d cpu=%q\n", pathB, b.Header.Commit, b.Header.Seed, b.Header.Seconds, b.Header.CPUModel)

	byName := map[string]*result{}
	for _, r := range b.Workloads {
		byName[r.Workload] = r
	}
	bad := 0
	for _, ra := range a.Workloads {
		rb, ok := byName[ra.Workload]
		if !ok {
			fmt.Fprintf(w, "%s: only in %s\n", ra.Workload, pathA)
			continue
		}
		sameInputs := a.Header.Seed == b.Header.Seed && a.Header.Seconds == b.Header.Seconds
		fmt.Fprintf(w, "%-26s %-24s %16s %16s %9s %7s  %s\n", "workload", "metric", "A", "B", "worse by", "bound", "verdict")
		for _, spec := range endToEnd {
			ma, okA := ra.Metrics[spec.Name]
			mb, okB := rb.Metrics[spec.Name]
			if !okA || !okB {
				continue
			}
			verdict := judge(spec, ma.Value, mb.Value, sameInputs, ownSpread(ra, spec.Name), ownSpread(rb, spec.Name))
			if verdict == "worse" || verdict == "changed" {
				bad++
			}
			bound := fmt.Sprintf("%.0f%%", spec.Bound*100)
			if repeatsExactly(spec) && sameInputs {
				bound = "exact"
			}
			fmt.Fprintf(w, "%-26s %-24s %16s %16s %+8.2f%% %7s  %s\n", ra.Workload, spec.Name,
				formatValue(ma.Value), formatValue(mb.Value), 100*worseBy(ma.Value, mb.Value, spec.Better), bound, verdict)
		}
		// Every other simulated value must repeat too; list only the ones
		// that do not.
		if sameInputs {
			same := 0
			for _, spec := range perLayer() {
				ma, okA := ra.Metrics[spec.Name]
				mb, okB := rb.Metrics[spec.Name]
				if spec.Clock != "sim" || isEndToEnd(spec.Name) || !okA || !okB {
					continue
				}
				if ma.Value == mb.Value {
					same++
					continue
				}
				bad++
				fmt.Fprintf(w, "%-26s %-24s %16s %16s %9s %7s  changed\n", ra.Workload, spec.Name,
					formatValue(ma.Value), formatValue(mb.Value), "", "exact")
			}
			fmt.Fprintf(w, "%-26s %d other simulated values identical\n", ra.Workload, same)
		}
		if ra.Failed+rb.Failed > 0 {
			fmt.Fprintf(w, "%-26s failed ops: A %d of %d, B %d of %d\n", ra.Workload, ra.Failed, ra.Ops, rb.Failed, rb.Ops)
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "%d metric(s) worse or changed\n", bad)
		return 1
	}
	fmt.Fprintln(w, "no metric worse than its bound")
	return 0
}
