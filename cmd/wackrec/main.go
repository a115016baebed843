// Command wackrec is the post-mortem companion of the flight recorder: it
// merges the bundles N daemons spilled (SIGQUIT, `wackactl dump`, an
// invariant trip, or a slow failover) into one causally ordered cluster
// timeline and explains each measured availability gap as the paper's §5
// fail-over decomposition — detection, membership, state-sync, ARP
// take-over — exactly the breakdown wacktrace computes for simulated trials,
// now recovered from live multi-daemon evidence.
//
//	wackrec -gaps gaps.json -o merged.ndjson /var/lib/wackamole/flight
//
// Events are ordered by the hybrid logical clocks the daemons piggybacked on
// every wire message, so the merged timeline is causally consistent even
// when the nodes' wall clocks disagree; per-node skew diagnostics quantify
// that disagreement. The merge is deterministic — repeated runs over the
// same bundles produce byte-identical output — and each reconstructed
// fail-over's phases must partition its measured gap exactly, which is how
// the CI live-cluster job turns forensics into a gate.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"wackamole/internal/forensics"
	"wackamole/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errW io.Writer) int {
	fs := flag.NewFlagSet("wackrec", flag.ContinueOnError)
	fs.SetOutput(errW)
	gapsPath := fs.String("gaps", "", "JSON file of probe-measured gaps [{target,start,end}] to reconstruct")
	detect := fs.Duration("detect-gaps", 0, "with no -gaps: infer gaps longer than this from the ownership timeline")
	mergedOut := fs.String("o", "", "write the merged causal timeline as NDJSON to this file")
	timelines := fs.Bool("timelines", false, "print per-VIP ownership timelines across nodes")
	require := fs.Int("require", 0, "exit nonzero unless at least this many failovers reconstruct")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(errW, "wackrec: need at least one bundle directory (or a directory of bundles)")
		return 2
	}

	bundles, err := forensics.LoadBundles(fs.Args()...)
	if err != nil {
		fmt.Fprintf(errW, "wackrec: %v\n", err)
		return 2
	}
	merged := forensics.Merge(bundles)

	fmt.Fprintf(out, "wackrec: %d bundles, %d nodes, %d events merged\n\n",
		len(bundles), len(merged.Nodes), len(merged.Events))
	fmt.Fprint(out, renderBundles(bundles))
	fmt.Fprintln(out)
	fmt.Fprint(out, renderSkew(merged.Nodes))

	if *mergedOut != "" {
		f, cerr := os.Create(*mergedOut)
		if cerr != nil {
			fmt.Fprintf(errW, "wackrec: %v\n", cerr)
			return 2
		}
		werr := merged.WriteNDJSON(f)
		if werr == nil {
			werr = f.Close()
		}
		if werr != nil {
			fmt.Fprintf(errW, "wackrec: %v\n", werr)
			return 2
		}
	}

	var gaps []forensics.Gap
	switch {
	case *gapsPath != "":
		fh, oerr := os.Open(*gapsPath)
		if oerr != nil {
			fmt.Fprintf(errW, "wackrec: %v\n", oerr)
			return 2
		}
		gaps, err = forensics.ReadGaps(fh)
		fh.Close()
		if err != nil {
			fmt.Fprintf(errW, "wackrec: %v\n", err)
			return 2
		}
	case *detect > 0:
		gaps = merged.DetectGaps(*detect)
	}

	failovers := merged.Reconstruct(gaps)
	if len(failovers) > 0 {
		fmt.Fprintln(out)
		fmt.Fprintln(out, "## Reconstructed failovers")
		fmt.Fprintln(out)
		fmt.Fprint(out, renderFailovers(failovers))
	}
	if *timelines {
		fmt.Fprintln(out)
		fmt.Fprintln(out, "## Ownership timelines")
		fmt.Fprintln(out)
		fmt.Fprint(out, obs.RenderOwnershipTimeline(merged.Events))
	}
	// The gate: every reconstructed failover's phases must partition its
	// measured gap exactly, and -require sets the floor on how many must
	// reconstruct.
	bad := 0
	for _, f := range failovers {
		if diff := (f.Phases.Total() - f.Gap).Abs(); diff != 0 {
			fmt.Fprintf(errW, "wackrec: %s gap %v but phases sum to %v (Δ %v)\n",
				f.Target, f.Gap, f.Phases.Total(), diff)
			bad++
		}
	}
	if bad > 0 {
		return 1
	}
	if len(failovers) < *require {
		fmt.Fprintf(errW, "wackrec: reconstructed %d failover(s), require %d\n", len(failovers), *require)
		return 1
	}
	if len(gaps) > 0 {
		fmt.Fprintf(out, "\nwackrec: all %d failover(s) consistent (phases partition the measured gap)\n", len(failovers))
	}
	return 0
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
