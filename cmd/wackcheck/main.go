// Command wackcheck is the deterministic-simulation model checker for the
// Wackamole protocol stack:
//
//	wackcheck -seeds 64 -steps 24 -shrink -json
//
// Each seed generates a randomized fault program (interface failures,
// partitions, session severs, graceful departures, scheduling-delay
// windows — plus, with -gray, flapping links, lossy-but-alive links and
// CPU-starved daemons) and executes it against a fully simulated cluster
// while online oracles check the paper's Property 1 (exactly-once coverage
// per network component), Property 2 (bounded convergence), the gcs
// layer's virtual-synchrony guarantees and, under -gray, bounded ownership
// ping-pong and bounded false suspicion of reachable peers. Violations are delta-debugged to minimal
// schedules (-shrink) and written as replayable artifacts;
// `wackcheck -replay <file>` re-executes an artifact and verifies the
// identical outcome. The oracles keep bounded state; when a bound forgot
// entries the summary reports how many ("dropped"), and a verdict is exact
// only while that count is absent. Sweeps run in parallel on the shared
// trial runner; exit status is 0 when every oracle held, 1 on violations or
// harness errors, 2 on usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"wackamole/internal/check"
	"wackamole/internal/experiment/runner"
	"wackamole/internal/gcs"
	"wackamole/internal/metrics"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("wackcheck", flag.ContinueOnError)
	seeds := fs.Int("seeds", 16, "number of consecutive seeds to sweep")
	seed := fs.Int64("seed", 1, "first seed")
	steps := fs.Int("steps", 12, "fault events per generated schedule")
	servers := fs.Int("servers", 5, "cluster size")
	vips := fs.Int("vips", 10, "virtual addresses")
	gray := fs.Bool("gray", false, "generate gray-failure shape events (flap, graylink, slownode) and arm the ping-pong and false-suspect oracles")
	detector := fs.String("detector", "fixed", "gcs failure detector the checked clusters run: fixed or phi")
	shrink := fs.Bool("shrink", false, "delta-debug violations to minimal schedules before writing artifacts")
	jsonOut := fs.Bool("json", false, "emit one JSON summary object instead of text")
	parallel := fs.Int("parallel", 0, "worker goroutines (0 = GOMAXPROCS)")
	outDir := fs.String("out", ".", "directory for violation artifacts")
	trace := fs.Bool("trace", false, "capture structured event traces and write them next to artifacts")
	mutate := fs.String("mutate", "", "inject a deliberate defect, e.g. keep-on-release:1 (checker self-test)")
	representative := fs.Bool("representative", false, "enable §4.2 representative-decisions mode")
	progress := fs.Bool("progress", false, "report per-seed progress on stderr")
	replay := fs.String("replay", "", "replay an artifact file instead of sweeping")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mutation, err := check.ParseMutation(*mutate)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wackcheck: %v\n", err)
		return 2
	}

	det, err := gcs.ParseDetector(*detector)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wackcheck: %v\n", err)
		return 2
	}

	reg := metrics.New()
	gcfg := gcs.TunedConfig()
	gcfg.Detector = det
	opts := check.Options{
		GCS:                     gcfg,
		RepresentativeDecisions: *representative,
		Trace:                   *trace,
		Metrics:                 reg,
		Mutation:                mutation,
	}

	if *replay != "" {
		return runReplay(*replay, *jsonOut, out)
	}
	if *seeds <= 0 || *steps <= 0 {
		fmt.Fprintln(os.Stderr, "wackcheck: -seeds and -steps must be positive")
		return 2
	}
	if *servers < 2 || *servers > check.MaxServers {
		fmt.Fprintf(os.Stderr, "wackcheck: -servers must be 2..%d\n", check.MaxServers)
		return 2
	}

	gen := check.GenConfig{Servers: *servers, VIPs: *vips, Steps: *steps, Gray: *gray}

	type finding struct {
		seed int64
		rep  *check.Report
	}
	var (
		mu       sync.Mutex
		findings []finding
		dropped  uint64
	)
	trial := func(s int64) (runner.Sample, error) {
		rep, err := check.Run(check.Generate(s, gen), opts)
		if err != nil {
			return runner.Sample{}, err
		}
		mu.Lock()
		defer mu.Unlock()
		dropped += rep.Dropped
		if rep.Violation != nil {
			findings = append(findings, finding{seed: s, rep: rep})
			return runner.Sample{Value: rep.Elapsed}, fmt.Errorf("%v", rep.Violation)
		}
		return runner.Sample{Value: rep.Elapsed}, nil
	}

	seedList := make([]int64, *seeds)
	for i := range seedList {
		seedList[i] = *seed + int64(i)
	}
	ropts := runner.Options{Workers: *parallel}
	if *progress {
		ropts.Sink = runner.SinkFunc(func(p runner.Progress) {
			status := "ok"
			if p.Err != nil {
				status = p.Err.Error()
			}
			fmt.Fprintf(os.Stderr, "wackcheck: [%d/%d] seed=%d %s\n", p.Done, p.Total, p.Seed, status)
		})
	}
	results := runner.Run([]runner.Point{{Label: "wackcheck", Seeds: seedList, Run: trial}}, ropts)

	sort.Slice(findings, func(i, j int) bool { return findings[i].seed < findings[j].seed })
	violating := map[int64]bool{}
	var artifacts []string
	for _, f := range findings {
		violating[f.seed] = true
		sched, rep, iters := f.rep.Schedule, f.rep, 0
		if *shrink {
			var err error
			sched, rep, iters, err = check.Shrink(sched, opts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "wackcheck: shrink seed %d: %v\n", f.seed, err)
				sched, rep, iters = f.rep.Schedule, f.rep, 0
			}
		}
		path, err := writeFinding(*outDir, f.seed, rep, opts, iters, *trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wackcheck: %v\n", err)
			return 1
		}
		artifacts = append(artifacts, path)
		if !*jsonOut {
			fmt.Fprintf(out, "seed %d: VIOLATION %v\n", f.seed, rep.Violation)
			fmt.Fprintf(out, "  schedule (%d events, shrunk in %d runs): %s\n",
				len(sched.Events), iters, path)
			for _, ev := range sched.Events {
				fmt.Fprintf(out, "    %v\n", ev)
			}
		}
	}

	// Harness failures (panics, malformed runs) are every bit as fatal as
	// violations but carry no artifact.
	var harnessErrs []string
	for _, te := range results[0].Errors {
		if !violating[te.Seed] {
			harnessErrs = append(harnessErrs, te.Error())
			fmt.Fprintf(os.Stderr, "wackcheck: %v\n", te)
		}
	}

	if *jsonOut {
		summary := map[string]any{
			"seeds":      *seeds,
			"first_seed": *seed,
			"steps":      *steps,
			"servers":    *servers,
			"vips":       *vips,
			"gray":       *gray,
			"detector":   det.String(),
			"violations": len(findings),
			"clean":      len(findings) == 0 && len(harnessErrs) == 0,
			"counters":   counterValues(reg),
		}
		if len(artifacts) > 0 {
			summary["artifacts"] = artifacts
		}
		if len(harnessErrs) > 0 {
			summary["errors"] = harnessErrs
		}
		if dropped > 0 {
			summary["dropped"] = dropped
		}
		enc := json.NewEncoder(out)
		if err := enc.Encode(summary); err != nil {
			fmt.Fprintf(os.Stderr, "wackcheck: %v\n", err)
			return 1
		}
	} else {
		fmt.Fprintf(out, "wackcheck: %d seeds × %d steps (%d servers, %d vips): %d violations\n",
			*seeds, *steps, *servers, *vips, len(findings))
		if dropped > 0 {
			fmt.Fprintf(out, "  dropped %d (monitor entries forgotten by its bounds; verdicts are not exact)\n", dropped)
		}
		counters := counterValues(reg)
		for _, name := range []string{"check_schedules_total", "check_steps_total",
			"check_violations_total", "check_shrink_iterations_total"} {
			if v, ok := counters[name]; ok {
				fmt.Fprintf(out, "  %s %v\n", name, v)
			}
		}
	}
	if len(findings) > 0 || len(harnessErrs) > 0 {
		return 1
	}
	return 0
}

// counterValues flattens the registry into name → summed value, the uniform
// counter report -json emits.
func counterValues(reg *metrics.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, f := range reg.Snapshot().Families {
		if f.Kind != metrics.KindCounter {
			continue
		}
		for _, s := range f.Series {
			out[f.Name] += s.Value
		}
	}
	return out
}

// writeFinding writes the artifact (and optional NDJSON trace) for one
// violating seed and returns the artifact path.
func writeFinding(dir string, seed int64, rep *check.Report, opts check.Options, iters int, trace bool) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("wackcheck-seed%d.json", seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := check.WriteArtifact(f, check.NewArtifact(rep, opts, iters)); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	if trace && len(rep.Trace) > 0 {
		tpath := filepath.Join(dir, fmt.Sprintf("wackcheck-seed%d.ndjson", seed))
		tf, err := os.Create(tpath)
		if err != nil {
			return "", err
		}
		if err := check.WriteTrace(tf, rep); err != nil {
			tf.Close()
			return "", err
		}
		if err := tf.Close(); err != nil {
			return "", err
		}
	}
	return path, nil
}

// runReplay re-executes an artifact and verifies it reproduces the recorded
// outcome exactly. Exit 0 means faithful reproduction.
func runReplay(path string, jsonOut bool, out io.Writer) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wackcheck: %v\n", err)
		return 2
	}
	art, err := check.ReadArtifact(f)
	f.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "wackcheck: %v\n", err)
		return 2
	}
	rep, match, err := check.Replay(art)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wackcheck: replay: %v\n", err)
		return 1
	}
	if jsonOut {
		summary := map[string]any{
			"mode":     "replay",
			"artifact": path,
			"match":    match,
			"expected": art.Violation,
			"observed": rep.Violation,
		}
		if err := json.NewEncoder(out).Encode(summary); err != nil {
			fmt.Fprintf(os.Stderr, "wackcheck: %v\n", err)
			return 1
		}
	} else {
		fmt.Fprintf(out, "replay %s\n  expected: %v\n  observed: %v\n  match: %v\n",
			path, art.Violation, rep.Violation, match)
	}
	if !match {
		return 1
	}
	return 0
}
