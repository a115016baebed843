// Command wacktrace analyzes the NDJSON trace streams `wacksim -trace`
// emits: it reconstructs each trial's fail-over phase spans from the raw
// event lines via obs.FailoverBreakdown, prints per-phase percentile tables
// and interruption histograms across trials, renders per-address ownership
// timelines, and writes folded-stack output consumable by standard
// flamegraph tooling.
//
//	wacksim -experiment figure5 -trials 5 -trace trace.ndjson >/dev/null
//	wacktrace -folded phases.folded trace.ndjson
//	flamegraph.pl phases.folded > phases.svg
//
// Every trial is cross-checked: the phases recomputed from the event stream
// must partition the trial's reported interruption within 1ms. A mismatch
// means the trace and the measurement disagree — wacktrace prints the
// offending trials and exits nonzero, which is how the CI smoke job turns
// trace consistency into a gate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"wackamole/internal/experiment"
	"wackamole/internal/metrics"
	"wackamole/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// trial is one traced trial joined with its event lines.
type trial struct {
	point      string
	seed       int64
	valueSec   float64
	reported   obs.Breakdown
	gapStart   time.Time
	gapEnd     time.Time
	target     string
	hasGap     bool
	dropped    uint64 // events the trial's ring evicted
	events     []obs.Event
	recomputed obs.Breakdown
}

// tolerance bounds how far a trial's recomputed phases may sum from its
// reported interruption in the consistency gate.
const tolerance = time.Millisecond

func run(args []string, stdin io.Reader, out, errW io.Writer) int {
	fs := flag.NewFlagSet("wacktrace", flag.ContinueOnError)
	fs.SetOutput(errW)
	folded := fs.String("folded", "", "write folded-stack phase spans (point;seed;phase weight-µs) to this file")
	timelines := fs.Bool("timelines", false, "print per-address ownership timelines for every trial")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	in := stdin
	switch fs.NArg() {
	case 0:
	case 1:
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			fmt.Fprintf(errW, "wacktrace: %v\n", err)
			return 2
		}
		defer f.Close()
		in = f
	default:
		fmt.Fprintln(errW, "wacktrace: at most one input file (default stdin)")
		return 2
	}

	trials, err := parseTrace(in)
	if err != nil {
		fmt.Fprintf(errW, "wacktrace: %v\n", err)
		return 2
	}
	if len(trials) == 0 {
		fmt.Fprintln(errW, "wacktrace: no trial records in input (was the sweep run with -trace?)")
		return 2
	}
	recompute(trials)

	points := pointOrder(trials)
	events := 0
	for _, t := range trials {
		events += len(t.events)
	}
	fmt.Fprintf(out, "wacktrace: %d trials across %d points, %d events\n\n", len(trials), len(points), events)
	fmt.Fprintln(out, "## Fail-over phase percentiles (recomputed from event streams)")
	fmt.Fprintln(out)
	fmt.Fprint(out, phaseTable(trials, points))
	fmt.Fprintln(out)
	fmt.Fprintln(out, "## Interruption distribution")
	fmt.Fprintln(out)
	fmt.Fprint(out, distribution(trials, points))
	if *timelines {
		fmt.Fprintln(out)
		fmt.Fprintln(out, "## Ownership timelines")
		fmt.Fprintln(out)
		fmt.Fprint(out, renderTimelines(trials))
	}
	if *folded != "" {
		f, err := os.Create(*folded)
		if err != nil {
			fmt.Fprintf(errW, "wacktrace: %v\n", err)
			return 2
		}
		writeFolded(f, trials)
		if err := f.Close(); err != nil {
			fmt.Fprintf(errW, "wacktrace: %v\n", err)
			return 2
		}
	}

	bad := checkConsistency(trials)
	if len(bad) > 0 {
		fmt.Fprintf(errW, "wacktrace: %d of %d trials inconsistent with their reported interruption:\n", len(bad), len(trials))
		for _, msg := range bad {
			fmt.Fprintf(errW, "  %s\n", msg)
		}
		return 1
	}
	fmt.Fprintf(out, "\nwacktrace: all %d trials consistent (recomputed phases partition the reported interruption within %v)\n",
		len(trials), tolerance)
	return 0
}

// parseTrace reads the interleaved trial/event NDJSON stream, joining event
// lines to their trial on (point, seed).
func parseTrace(r io.Reader) ([]*trial, error) {
	type key struct {
		point string
		seed  int64
	}
	byKey := map[key]*trial{}
	var order []*trial
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	ln := 0
	for sc.Scan() {
		ln++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var head struct {
			Record string `json:"record"`
			Point  string `json:"point"`
			Seed   int64  `json:"seed"`
		}
		if err := json.Unmarshal([]byte(line), &head); err != nil {
			return nil, fmt.Errorf("line %d: %v", ln, err)
		}
		switch head.Record {
		case "trial":
			var rec experiment.TraceTrialRecord
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				return nil, fmt.Errorf("line %d: trial record: %v", ln, err)
			}
			t := &trial{point: rec.Point, seed: rec.Seed, valueSec: rec.ValueSec,
				reported: rec.Phases, target: rec.Target, dropped: rec.Dropped}
			if rec.GapStart != "" && rec.GapEnd != "" {
				gs, err1 := time.Parse(time.RFC3339Nano, rec.GapStart)
				ge, err2 := time.Parse(time.RFC3339Nano, rec.GapEnd)
				if err1 == nil && err2 == nil {
					t.gapStart, t.gapEnd, t.hasGap = gs, ge, true
				}
			}
			byKey[key{rec.Point, rec.Seed}] = t
			order = append(order, t)
		case "event":
			t := byKey[key{head.Point, head.Seed}]
			if t == nil {
				return nil, fmt.Errorf("line %d: event for unknown trial %s seed=%d", ln, head.Point, head.Seed)
			}
			var e obs.Event
			if err := json.Unmarshal([]byte(line), &e); err != nil {
				return nil, fmt.Errorf("line %d: event record: %v", ln, err)
			}
			t.events = append(t.events, e)
		default:
			return nil, fmt.Errorf("line %d: unknown record type %q", ln, head.Record)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return order, nil
}

// recompute re-derives each trial's breakdown from its raw events; trials
// from producers predating the gap fields keep their reported phases.
func recompute(trials []*trial) {
	for _, t := range trials {
		if t.hasGap {
			t.recomputed = obs.FailoverBreakdown(t.events, t.gapStart, t.gapEnd, t.target)
		} else {
			t.recomputed = t.reported
		}
	}
}

// pointOrder lists the distinct points in first-appearance order.
func pointOrder(trials []*trial) []string {
	seen := map[string]bool{}
	var out []string
	for _, t := range trials {
		if !seen[t.point] {
			seen[t.point] = true
			out = append(out, t.point)
		}
	}
	return out
}

func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3fs", d.Seconds())
}

// phaseTable renders per-point, per-phase percentiles across trials. The
// quantiles use the same shared nearest-rank implementation as the
// experiment layer's Stat, so offline and online numbers can never disagree.
func phaseTable(trials []*trial, points []string) string {
	header := []string{"point", "phase", "trials", "mean", "p50", "p90", "p99", "max"}
	var rows [][]string
	for _, p := range points {
		byPhase := make([][]time.Duration, len(obs.PhaseNames)+1)
		for _, t := range trials {
			if t.point != p {
				continue
			}
			for i, d := range t.recomputed.Phases() {
				byPhase[i] = append(byPhase[i], d)
			}
			byPhase[len(obs.PhaseNames)] = append(byPhase[len(obs.PhaseNames)], t.recomputed.Total())
		}
		for i, name := range append(append([]string{}, obs.PhaseNames...), "total") {
			ds := byPhase[i]
			sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
			var sum time.Duration
			for _, d := range ds {
				sum += d
			}
			mean := time.Duration(0)
			if len(ds) > 0 {
				mean = sum / time.Duration(len(ds))
			}
			rows = append(rows, []string{
				p, name, fmt.Sprintf("%d", len(ds)), fmtDur(mean),
				fmtDur(metrics.Percentile(ds, 50)),
				fmtDur(metrics.Percentile(ds, 90)),
				fmtDur(metrics.Percentile(ds, 99)),
				fmtDur(metrics.Percentile(ds, 100)),
			})
		}
	}
	return experiment.Table(header, rows)
}

// distribution renders a bucket histogram of total interruptions per point,
// using the shared log-bucketed histogram so the offline view matches what
// a live registry would have recorded.
func distribution(trials []*trial, points []string) string {
	var b strings.Builder
	bounds := metrics.BucketBoundaries()
	for _, p := range points {
		var h metrics.Histogram
		n := 0
		for _, t := range trials {
			if t.point == p {
				h.Observe(t.recomputed.Total().Seconds())
				n++
			}
		}
		snap := h.Snapshot()
		fmt.Fprintf(&b, "%s (%d trials)\n", p, n)
		max := uint64(0)
		for _, c := range snap.Counts {
			if c > max {
				max = c
			}
		}
		for i, c := range snap.Counts {
			if c == 0 {
				continue
			}
			label := "+Inf"
			if i < len(bounds) {
				label = time.Duration(bounds[i] * float64(time.Second)).String()
			}
			bar := strings.Repeat("█", int(math.Ceil(float64(c)/float64(max)*40)))
			fmt.Fprintf(&b, "  ≤ %-12s %s %d\n", label, bar, c)
		}
	}
	return b.String()
}

// renderTimelines prints each trial's per-address ownership spans under a
// header naming the trial.
func renderTimelines(trials []*trial) string {
	var b strings.Builder
	for _, t := range trials {
		fmt.Fprintf(&b, "%s seed=%d\n", t.point, t.seed)
		b.WriteString(obs.RenderOwnershipTimeline(t.events))
	}
	return b.String()
}

// writeFolded emits one folded-stack line per nonzero phase span
// (point;seed;phase weight-in-µs), the input format of flamegraph.pl and
// compatible tooling.
func writeFolded(w io.Writer, trials []*trial) {
	for _, t := range trials {
		for i, d := range t.recomputed.Phases() {
			if d <= 0 {
				continue
			}
			fmt.Fprintf(w, "%s;seed=%d;%s %d\n", t.point, t.seed, obs.PhaseNames[i], d.Microseconds())
		}
	}
}

// checkConsistency verifies, per trial, that no event was evicted, that the
// recomputed phases sum to the reported interruption and that they agree
// with the producer's own breakdown.
func checkConsistency(trials []*trial) []string {
	var bad []string
	for _, t := range trials {
		if t.dropped > 0 {
			bad = append(bad, fmt.Sprintf("%s seed=%d: incomplete, its ring evicted %d events, so its phases cannot be recomputed",
				t.point, t.seed, t.dropped))
			continue
		}
		total := t.recomputed.Total()
		reportedGap := time.Duration(t.valueSec * float64(time.Second))
		if diff := (total - reportedGap).Abs(); diff > tolerance {
			bad = append(bad, fmt.Sprintf("%s seed=%d: phases sum to %v but reported interruption is %v (Δ %v)",
				t.point, t.seed, total, reportedGap, diff))
			continue
		}
		rep := t.reported.Phases()
		for i, d := range t.recomputed.Phases() {
			if diff := (d - rep[i]).Abs(); diff > tolerance {
				bad = append(bad, fmt.Sprintf("%s seed=%d: %s recomputed %v vs recorded %v (Δ %v)",
					t.point, t.seed, obs.PhaseNames[i], d, rep[i], diff))
				break
			}
		}
	}
	return bad
}
