// Command wacksim runs the paper's evaluation on the deterministic
// simulator: every table and figure, and the request-level availability
// experiment.
//
//	wacksim -experiment all -trials 10 -parallel 8
//	wacksim -experiment availability -clients 1000 -mode open -rps 5000 -fault nic -json
//
// Experiments: table1, figure5, graceful, router, baselines, load,
// ablations, all (the registry experiment.Experiments). Output is markdown,
// suitable for pasting into EXPERIMENTS.md; -json emits one JSON object per
// result row (NDJSON) instead, and -format csv, -trace, -invariants and
// -sizes apply to the experiments whose descriptor honours them (a usage
// error when none selected does). Trials are independent simulations, so
// -parallel N spreads them over N workers without changing any number.
//
// -experiment availability runs alone. It drives a population of simulated
// clients over flow connections against the web-cluster or virtual-router
// topology, injects a fault, and reports what the clients experienced —
// goodput and error-rate timeline, per-class request counts (ok / reset /
// timeout / stale), latency before/during/after the fail-over, and the
// established connections lost at takeover. Besides the paper's clean
// faults (nic, crash, graceful) -fault accepts the gray-failure shapes
// flap, graylink and slownode, applied to the target's owner for
// -gray-window under the -detector of choice, and rolling, which drains and
// rejoins every server in sequence under the -placement policy of choice.
// -json emits one aggregate row, then one row per trial; -prom writes the
// trials' shared metrics registry in Prometheus text exposition format (-
// for stdout); -invariants reports every violating trial and exits 1. Its
// own flags (-clients, -mode, -rps, -think, -fault, -placement, -shape,
// -gray-window, -detector, -detect-timeout, -topology, -servers, -pre,
// -post, -prom) are a usage error under any other experiment.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"wackamole/internal/experiment"
	"wackamole/internal/experiment/runner"
	"wackamole/internal/faults"
	"wackamole/internal/gcs"
	"wackamole/internal/load"
	"wackamole/internal/metrics"
	"wackamole/internal/placement"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// availabilityFlags are the flags -experiment availability alone honours.
type availabilityFlags struct {
	clients, servers                            int
	rps                                         float64
	mode, fault, placement, shape, detector     string
	topology, prom                              string
	think, grayWindow, detectTimeout, pre, post time.Duration
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("wacksim", flag.ContinueOnError)
	exp := fs.String("experiment", "all", "experiments to run, comma-separated, or all, or availability alone (an unknown name lists the registered ones)")
	trials := fs.Int("trials", 10, "seeded trials per data point")
	format := fs.String("format", "markdown", "figure5 output format: markdown|csv")
	seed := fs.Int64("seed", 1, "base seed")
	parallel := fs.Int("parallel", 0, "worker goroutines per sweep (0 = GOMAXPROCS)")
	jsonOut := fs.Bool("json", false, "emit NDJSON result rows instead of tables")
	progress := fs.Bool("progress", false, "report per-trial progress on stderr")
	invariants := fs.Bool("invariants", false, "arm the always-on protocol-invariant monitors on every trial (figure5, graceful: a violation fails the trial; availability: it exits 1)")
	tracePath := fs.String("trace", "", "capture per-trial structured event streams into this NDJSON file (figure5, availability)")
	sizesFlag := fs.String("sizes", "", "comma-separated cluster sizes for figure5 (default: the paper's 2,4,6,8,10,12)")
	// Every flag registered after this snapshot is availability's own.
	shared := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) { shared[f.Name] = true })
	var a availabilityFlags
	fs.IntVar(&a.clients, "clients", 200, "concurrent simulated clients")
	fs.StringVar(&a.mode, "mode", "closed", "workload shape: open|closed")
	fs.Float64Var(&a.rps, "rps", 1000, "aggregate Poisson arrival rate (open loop)")
	fs.DurationVar(&a.think, "think", time.Second, "per-client think time (closed loop)")
	fs.StringVar(&a.fault, "fault", "nic", "injected fault: nic|crash|graceful|flap|graylink|slownode|rolling")
	fs.StringVar(&a.placement, "placement", "", "VIP placement policy: least-loaded|minimal (\"\" = least-loaded; web topology)")
	fs.StringVar(&a.shape, "shape", "", "fault program for gray faults (internal/faults spec syntax; \"\" = the kind's default)")
	fs.DurationVar(&a.grayWindow, "gray-window", 0, "how long a gray fault stays applied (0 = half of -post)")
	fs.StringVar(&a.detector, "detector", "fixed", "gcs failure detector: fixed|phi")
	fs.DurationVar(&a.detectTimeout, "detect-timeout", 0, "override the gcs fixed fault-detect timeout T (0 = tuned profile's 1s); under -detector phi this is the fallback floor")
	fs.StringVar(&a.topology, "topology", "web", "scenario: web|router")
	fs.IntVar(&a.servers, "servers", 4, "web-cluster size")
	fs.DurationVar(&a.pre, "pre", 0, "fault-free measurement window (0 = default 4s)")
	fs.DurationVar(&a.post, "post", 0, "post-fault run time (0 = fail-over bound + window)")
	fs.StringVar(&a.prom, "prom", "", "write the shared metrics registry in Prometheus exposition format (- for stdout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trials <= 0 {
		fmt.Fprintln(os.Stderr, "wacksim: -trials must be positive")
		return 2
	}
	if *format != "markdown" && *format != "csv" {
		fmt.Fprintln(os.Stderr, "wacksim: -format must be markdown or csv")
		return 2
	}
	var sizes []int
	if *sizesFlag != "" {
		for _, s := range strings.Split(*sizesFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "wacksim: -sizes: bad cluster size %q\n", s)
				return 2
			}
			sizes = append(sizes, n)
		}
	}

	opts := []experiment.Option{experiment.Parallel(*parallel)}
	if *tracePath != "" {
		opts = append(opts, experiment.WithTrace())
	}
	if *invariants {
		opts = append(opts, experiment.WithInvariants())
	}
	if *progress {
		opts = append(opts, experiment.WithSink(runner.SinkFunc(func(p runner.Progress) {
			fmt.Fprintf(os.Stderr, "wacksim: %v\n", p)
		})))
	}

	selected := experiment.Experiments
	avail := false
	if *exp != "all" {
		selected = nil
		for _, name := range strings.Split(*exp, ",") {
			if name = strings.TrimSpace(name); name == "availability" {
				avail = true
				continue
			}
			e, err := experiment.Lookup(name)
			if err != nil {
				fmt.Fprintf(os.Stderr, "wacksim: %v, availability or all\n", err)
				return 2
			}
			selected = append(selected, e)
		}
	}
	if avail && len(selected) > 0 {
		fmt.Fprintf(os.Stderr, "wacksim: -experiment availability runs alone, not in %s\n", *exp)
		return 2
	}
	// A flag that no selected experiment honours would be silently dropped.
	type rule struct {
		name            string
		given, honoured bool
	}
	honours := func(p func(experiment.Experiment) bool) bool { return slices.ContainsFunc(selected, p) }
	rules := []rule{
		{"-trace", *tracePath != "", avail || honours(func(e experiment.Experiment) bool { return e.Trace })},
		{"-invariants", *invariants, avail || honours(func(e experiment.Experiment) bool { return e.Invariants })},
		{"-sizes", *sizesFlag != "", honours(func(e experiment.Experiment) bool { return e.Sizes })},
		{"-format csv", *format == "csv", honours(func(e experiment.Experiment) bool { return e.CSV != nil })},
	}
	fs.Visit(func(f *flag.Flag) {
		if !shared[f.Name] {
			rules = append(rules, rule{"-" + f.Name, true, avail})
		}
	})
	for _, f := range rules {
		if f.given && !f.honoured {
			fmt.Fprintf(os.Stderr, "wacksim: %s is not honoured by -experiment %s\n", f.name, *exp)
			return 2
		}
	}
	if avail {
		cfg, err := a.config()
		if err != nil {
			fmt.Fprintf(os.Stderr, "wacksim: %v\n", err)
			return 2
		}
		return runAvailability(out, cfg, *seed, *trials, opts, *jsonOut, *invariants, *tracePath, a.prom)
	}

	var trace *os.File
	if *tracePath != "" {
		var err error
		if trace, err = os.Create(*tracePath); err != nil {
			fmt.Fprintf(os.Stderr, "wacksim: %v\n", err)
			return 1
		}
		defer trace.Close()
	}
	for _, e := range selected {
		rows, err := experiment.Sweep(e, experiment.Grid{Seed: *seed, Trials: *trials, Sizes: sizes}, opts...)
		if err == nil && trace != nil {
			err = experiment.WriteTrace(trace, rows)
		}
		if err == nil && *jsonOut {
			err = experiment.WriteNDJSON(out, rows)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "wacksim: %s: %v\n", e.Name, err)
			return 1
		}
		if *jsonOut {
			continue
		}
		if *format == "csv" && e.CSV != nil {
			fmt.Fprintln(out, e.CSV(rows))
		} else {
			fmt.Fprintf(out, "%s\n\n%s\n", e.Title, e.Render(rows))
		}
	}
	if trace != nil {
		if err := trace.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "wacksim: %v\n", err)
			return 1
		}
	}
	return 0
}

// config validates the availability flags into the experiment's
// configuration; every error it returns is a usage error.
func (a *availabilityFlags) config() (cfg experiment.AvailabilityConfig, err error) {
	m, err := load.ParseMode(a.mode)
	if err != nil {
		return cfg, err
	}
	fk, err := experiment.ParseFaultKind(a.fault)
	if err != nil {
		return cfg, err
	}
	// A gray-fault flag under a clean fault would be silently dropped.
	if a.shape != "" && !fk.Gray() {
		return cfg, fmt.Errorf("-shape is not honoured by -fault %s", fk)
	}
	if a.grayWindow != 0 && !fk.Gray() {
		return cfg, fmt.Errorf("-gray-window is not honoured by -fault %s", fk)
	}
	topo, err := experiment.ParseTopology(a.topology)
	if err != nil {
		return cfg, err
	}
	det, err := gcs.ParseDetector(a.detector)
	if err != nil {
		return cfg, err
	}
	if a.shape != "" {
		if _, err := faults.ParseProgram(a.shape); err != nil {
			return cfg, err
		}
	}
	if _, err := placement.New(a.placement); err != nil {
		return cfg, err
	}
	gcfg := gcs.TunedConfig()
	gcfg.Detector = det
	if a.detectTimeout > 0 {
		if a.detectTimeout <= gcfg.HeartbeatInterval {
			return cfg, fmt.Errorf("-detect-timeout must exceed the heartbeat interval (%v)", gcfg.HeartbeatInterval)
		}
		gcfg.FaultDetectTimeout = a.detectTimeout
	}
	return experiment.AvailabilityConfig{
		Topology:   topo,
		Servers:    a.servers,
		Clients:    a.clients,
		Mode:       m,
		RPS:        a.rps,
		ThinkTime:  a.think,
		Fault:      fk,
		Shape:      a.shape,
		GrayWindow: a.grayWindow,
		Placement:  a.placement,
		GCS:        gcfg,
		PreFault:   a.pre,
		PostFault:  a.post,
		Metrics:    metrics.New(),
	}, nil
}

// runAvailability runs the availability experiment and writes what it
// measured: the -trace and -prom files, the table or the NDJSON rows, and
// the invariant verdict.
func runAvailability(out io.Writer, cfg experiment.AvailabilityConfig, seed int64, trials int,
	opts []experiment.Option, jsonOut, invariants bool, tracePath, promPath string) int {
	row, err := experiment.Availability(seed, trials, cfg, opts...)
	if err == nil && tracePath != "" {
		err = writeFile(tracePath, func(w io.Writer) error { return experiment.WriteTrace(w, []experiment.Row{row}) })
	}
	if err == nil && promPath == "-" {
		err = metrics.WritePrometheus(out, cfg.Metrics.Snapshot())
	} else if err == nil && promPath != "" {
		err = writeFile(promPath, func(w io.Writer) error { return metrics.WritePrometheus(w, cfg.Metrics.Snapshot()) })
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "wacksim: %v\n", err)
		return 1
	}

	// Invariant verdict: report every violating trial and exit nonzero, so
	// large-scale runs double as model-checking runs (CI gates on this).
	// Each line names the seed and the point: rerunning this command with
	// that -seed and -trials 1 (plus -trace) re-creates the trial.
	violated := 0
	for _, r := range experiment.AvailabilityResults(row) {
		if r.Violation != nil {
			violated++
			fmt.Fprintf(os.Stderr, "wacksim: invariant violation (seed %d, point %s): %v\n", r.Seed, cfg.Label(), r.Violation)
		}
	}

	if jsonOut {
		if err := experiment.WriteNDJSON(out, experiment.AvailabilityRows(row)); err != nil {
			fmt.Fprintf(os.Stderr, "wacksim: %v\n", err)
			return 1
		}
		if violated > 0 {
			return 1
		}
		return 0
	}
	fmt.Fprintln(out, "## Request-level availability across a fault")
	fmt.Fprintln(out)
	fmt.Fprint(out, experiment.RenderAvailability(row))
	if invariants {
		if violated > 0 {
			fmt.Fprintf(out, "\ninvariants: %d violating trial(s)\n", violated)
			return 1
		}
		fmt.Fprintln(out, "\ninvariants: all oracles held")
	}
	return 0
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
