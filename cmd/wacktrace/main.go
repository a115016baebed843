// Command wacktrace explains fail-overs as the paper's §5 decomposition —
// detection, membership, state-sync, ARP take-over — from either kind of
// evidence the project records. Its arguments pick the loader.
//
// Both loaders end in the same []forensics.Failover, and one predicate
// gates it: a gap counts as a fail-over only when a gather-enter, the
// acquirer's membership install and the target's acquire all lie inside it.
//
// One file, or stdin, is the NDJSON trace stream `wacksim -trace` emits.
// wacktrace reconstructs each trial from its raw event lines and its
// record's gap (virtual time in place of the HLC wall), prints per-phase
// percentile tables and interruption histograms across trials, and writes
// folded-stack output for flamegraph tooling (-folded). Every trial must be
// explained, with no event evicted from its ring, or wacktrace names the
// failing trials and exits nonzero.
//
//	wacksim -experiment figure5 -trials 5 -trace trace.ndjson >/dev/null
//	wacktrace -folded phases.folded trace.ndjson
//	flamegraph.pl phases.folded > phases.svg
//
// Directories are flight bundles that live daemons spilled (SIGQUIT,
// `wackactl dump`, an invariant trip, or a slow failover). wacktrace merges
// them by the hybrid logical clocks the daemons piggybacked on every wire
// message into one causally ordered timeline (-o), deterministic even when
// the nodes' wall clocks disagree, reports per-node skew, and explains each
// measured gap (-gaps, or -detect-gaps to infer them) as the four phases.
// -require sets a floor on how many gaps are explained; below it wacktrace
// exits nonzero.
//
//	wacktrace -gaps gaps.json -o merged.ndjson /var/lib/wackamole/flight
//
// -timelines prints per-address ownership timelines for either input. A
// flag the input does not honour, or a directory mixed with a file, is a
// usage error.
package main

import (
	"bufio"
	"cmp"
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
	"wackamole/internal/forensics"
	"wackamole/internal/metrics"
	"wackamole/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// trial is one traced trial joined with its event lines.
type trial struct {
	point    string
	seed     int64
	dropped  uint64 // events the trial's ring evicted
	events   []obs.Event
	failover forensics.Failover
}

func run(args []string, stdin io.Reader, out, errW io.Writer) int {
	fs := flag.NewFlagSet("wacktrace", flag.ContinueOnError)
	fs.SetOutput(errW)
	folded := fs.String("folded", "", "write folded-stack phase spans (point;seed;phase weight-µs) to this file (trace)")
	timelines := fs.Bool("timelines", false, "print per-address ownership timelines")
	gapsPath := fs.String("gaps", "", "JSON file of probe-measured gaps [{target,start,end}] to reconstruct (bundles)")
	detect := fs.Duration("detect-gaps", 0, "with no -gaps: infer gaps longer than this from the ownership timeline (bundles)")
	mergedOut := fs.String("o", "", "write the merged causal timeline as NDJSON to this file (bundles)")
	require := fs.Int("require", 0, "exit nonzero unless at least this many failovers reconstruct (bundles)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	dirs := 0
	for _, a := range fs.Args() {
		if st, err := os.Stat(a); err == nil && st.IsDir() {
			dirs++
		}
	}
	bundles := dirs > 0
	if bundles && dirs < fs.NArg() {
		fmt.Fprintln(errW, "wacktrace: give bundle directories or one trace file, not both")
		return 2
	}
	input := "a trace stream"
	if bundles {
		input = "flight bundles"
	}
	// A flag the chosen input does not honour would be silently dropped.
	for _, f := range []struct {
		name            string
		given, honoured bool
	}{
		{"-folded", *folded != "", !bundles},
		{"-gaps", *gapsPath != "", bundles},
		{"-detect-gaps", *detect != 0, bundles},
		{"-o", *mergedOut != "", bundles},
		{"-require", *require != 0, bundles},
	} {
		if f.given && !f.honoured {
			fmt.Fprintf(errW, "wacktrace: %s is not honoured by %s\n", f.name, input)
			return 2
		}
	}
	if bundles {
		return runBundles(fs.Args(), *gapsPath, *detect, *mergedOut, *timelines, *require, out, errW)
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
	return runTrace(in, *folded, *timelines, out, errW)
}

// runTrace reconstructs every traced trial from its events, prints the
// per-point tables and gates on every trial being explained.
func runTrace(in io.Reader, folded string, timelines bool, out, errW io.Writer) int {
	trials, err := parseTrace(in)
	if err != nil {
		fmt.Fprintf(errW, "wacktrace: %v\n", err)
		return 2
	}
	if len(trials) == 0 {
		fmt.Fprintln(errW, "wacktrace: no trial records in input (was the sweep run with -trace?)")
		return 2
	}
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
	if timelines {
		fmt.Fprintln(out)
		fmt.Fprintln(out, "## Ownership timelines")
		fmt.Fprintln(out)
		fmt.Fprint(out, renderTimelines(trials))
	}
	if folded != "" {
		if err := writeFile(folded, func(w io.Writer) error { return writeFolded(w, trials) }); err != nil {
			fmt.Fprintf(errW, "wacktrace: %v\n", err)
			return 2
		}
	}

	var bad []string
	for _, t := range trials {
		if why := unexplained(t.failover, t.dropped); why != "" {
			bad = append(bad, fmt.Sprintf("%s seed=%d: %s", t.point, t.seed, why))
		}
	}
	if len(bad) > 0 {
		fmt.Fprintf(errW, "wacktrace: %d of %d trials unexplained:\n", len(bad), len(trials))
		for _, msg := range bad {
			fmt.Fprintf(errW, "  %s\n", msg)
		}
		return 1
	}
	fmt.Fprintf(out, "\nwacktrace: all %d trials explained (%s inside each gap, no event evicted)\n", len(trials), anchors)
	return 0
}

// runBundles merges the flight bundles under dirs into one causal timeline
// and reconstructs the fail-overs behind the measured (or inferred) gaps.
func runBundles(dirs []string, gapsPath string, detect time.Duration, mergedOut string, timelines bool, require int, out, errW io.Writer) int {
	bundles, err := forensics.LoadBundles(dirs...)
	if err != nil {
		fmt.Fprintf(errW, "wacktrace: %v\n", err)
		return 2
	}
	merged := forensics.Merge(bundles)

	fmt.Fprintf(out, "wacktrace: %d bundles, %d nodes, %d events merged\n\n",
		len(bundles), len(merged.Nodes), len(merged.Events))
	fmt.Fprint(out, renderBundles(bundles))
	fmt.Fprintln(out)
	fmt.Fprint(out, renderSkew(merged.Nodes))

	if mergedOut != "" {
		if err := writeFile(mergedOut, merged.WriteNDJSON); err != nil {
			fmt.Fprintf(errW, "wacktrace: %v\n", err)
			return 2
		}
	}

	var gaps []forensics.Gap
	switch {
	case gapsPath != "":
		fh, oerr := os.Open(gapsPath)
		if oerr != nil {
			fmt.Fprintf(errW, "wacktrace: %v\n", oerr)
			return 2
		}
		gaps, err = forensics.ReadGaps(fh)
		fh.Close()
		if err != nil {
			fmt.Fprintf(errW, "wacktrace: %v\n", err)
			return 2
		}
	case detect > 0:
		gaps = merged.DetectGaps(detect)
	}

	failovers := merged.Reconstruct(gaps)
	if len(failovers) > 0 {
		fmt.Fprintln(out)
		fmt.Fprintln(out, "## Reconstructed failovers")
		fmt.Fprintln(out)
		fmt.Fprint(out, renderFailovers(failovers))
	}
	if timelines {
		fmt.Fprintln(out)
		fmt.Fprintln(out, "## Ownership timelines")
		fmt.Fprintln(out)
		fmt.Fprint(out, obs.RenderOwnershipTimeline(merged.Events))
	}
	// -require sets the floor on how many gaps the bundles explain.
	explained := 0
	for _, f := range failovers {
		if unexplained(f, 0) == "" {
			explained++
		}
	}
	if explained < require {
		fmt.Fprintf(errW, "wacktrace: explained %d of %d gap(s), require %d\n", explained, len(failovers), require)
		return 1
	}
	if len(gaps) > 0 {
		fmt.Fprintf(out, "\nwacktrace: %d of %d gap(s) explained (%s inside the gap)\n", explained, len(failovers), anchors)
	}
	return 0
}

// anchors names the events whose presence inside a gap explains it.
const anchors = "a gather-enter, the acquirer's install and the target's acquire"

// unexplained is the gate's one predicate: it says why failover f does not
// count as explained, or returns "" when it does. Its gap must hold all of
// anchors, and none of its events may have been evicted (evicted is a trace
// trial's dropped count; bundles pass 0).
func unexplained(f forensics.Failover, evicted uint64) string {
	switch {
	case evicted > 0:
		return fmt.Sprintf("incomplete, its ring evicted %d events", evicted)
	case !f.Explained:
		return "no gather-enter, acquirer install and target acquire all inside the gap"
	}
	return ""
}

// writeFile creates path, writes it through write and closes it, returning
// the first error.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// parseTrace reads the interleaved trial/event NDJSON stream, joining event
// lines to their trial on (point, seed), and reconstructs every trial's
// failover from its events and its record's gap.
func parseTrace(r io.Reader) ([]*trial, error) {
	type key struct {
		point string
		seed  int64
	}
	byKey := map[key]*trial{}
	var order []*trial
	var gaps []forensics.Gap // gaps[i] is order[i]'s
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
			gs, err1 := time.Parse(time.RFC3339Nano, rec.GapStart)
			ge, err2 := time.Parse(time.RFC3339Nano, rec.GapEnd)
			if err := cmp.Or(err1, err2); err != nil {
				return nil, fmt.Errorf("line %d: trial record gap: %v", ln, err)
			}
			gap := forensics.Gap{Target: rec.Target, Start: gs, End: ge}
			if err := gap.Check(); err != nil {
				return nil, fmt.Errorf("line %d: trial record gap: %v", ln, err)
			}
			t := &trial{point: rec.Point, seed: rec.Seed, dropped: rec.Dropped}
			byKey[key{rec.Point, rec.Seed}] = t
			order = append(order, t)
			gaps = append(gaps, gap)
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
	for i, t := range order {
		t.failover = (&forensics.Merged{Events: t.events}).Reconstruct(gaps[i : i+1])[0]
	}
	return order, nil
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
			for i, d := range t.failover.Phases.Phases() {
				byPhase[i] = append(byPhase[i], d)
			}
			byPhase[len(obs.PhaseNames)] = append(byPhase[len(obs.PhaseNames)], t.failover.Phases.Total())
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
				h.Observe(t.failover.Phases.Total().Seconds())
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
// compatible tooling, and returns the first write error.
func writeFolded(w io.Writer, trials []*trial) error {
	for _, t := range trials {
		for i, d := range t.failover.Phases.Phases() {
			if d <= 0 {
				continue
			}
			if _, err := fmt.Fprintf(w, "%s;seed=%d;%s %d\n", t.point, t.seed, obs.PhaseNames[i], d.Microseconds()); err != nil {
				return err
			}
		}
	}
	return nil
}

func renderBundles(bundles []*forensics.Bundle) string {
	var b strings.Builder
	fmt.Fprintln(&b, "## Bundles")
	fmt.Fprintln(&b)
	for _, bd := range bundles {
		m := bd.Manifest
		fmt.Fprintf(&b, "  %-22s seq=%d reason=%-18s events=%d views=%d dumped=%s\n",
			m.Node, m.Seq, m.Reason, m.Events, m.Views, m.At.UTC().Format(time.RFC3339))
	}
	return b.String()
}

func renderSkew(nodes []forensics.NodeSkew) string {
	var b strings.Builder
	fmt.Fprintln(&b, "## Clock diagnostics")
	fmt.Fprintln(&b)
	for _, n := range nodes {
		stamped := n.Events - n.Unstamped
		fmt.Fprintf(&b, "  %-22s events=%d stamped=%d max_skew=%v hlc=%s\n",
			n.Node, n.Events, stamped, n.MaxSkew, n.LastHLC)
	}
	return b.String()
}

func renderFailovers(failovers []forensics.Failover) string {
	var b strings.Builder
	for i, f := range failovers {
		fmt.Fprintf(&b, "failover %d: %s unreachable %v (%s → %s)\n",
			i+1, f.Target, f.Gap,
			f.GapStart.Format(time.RFC3339Nano), f.GapEnd.Format(time.RFC3339Nano))
		if f.Detector != "" || f.Acquirer != "" {
			fmt.Fprintf(&b, "  detector=%s acquirer=%s\n", f.Detector, f.Acquirer)
		}
		if why := unexplained(f, 0); why != "" {
			fmt.Fprintf(&b, "  unexplained: %s\n", why)
		}
		for j, d := range f.Phases.Phases() {
			pct := 0.0
			if f.Gap > 0 {
				pct = float64(d) / float64(f.Gap) * 100
			}
			fmt.Fprintf(&b, "  %-13s %10v  %5.1f%%\n", obs.PhaseNames[j], d, pct)
		}
		fmt.Fprintf(&b, "  %-13s %10v\n", "total", f.Phases.Total())
	}
	return b.String()
}
