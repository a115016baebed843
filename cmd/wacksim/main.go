// Command wacksim runs the paper's evaluation on the deterministic
// simulator: every table and figure, and the request-level availability
// experiment.
//
//	wacksim -experiment all -trials 10 -parallel 8
//	wacksim -experiment availability -clients 1000 -mode open -rps 5000 -fault nic -json
//
// Experiments: table1, figure5, graceful, router, baselines, load,
// ablations, all (the registry experiment.Experiments), and availability.
// Every one runs through the same loop: sweep, -trace stream, then the
// markdown table (suitable for pasting into EXPERIMENTS.md) or, under
// -json, one JSON object per result row (NDJSON). -trace, -invariants and
// -sizes apply to the experiments whose descriptor honours them (a usage
// error when none selected does). -invariants arms the protocol-invariant
// monitors on every trial: each violating trial is reported on stderr, the
// tables end with an "invariants:" verdict line, and any violation exits 1.
// Trials are independent simulations, so -parallel N spreads them over N
// workers without changing any number.
//
// -experiment availability runs alone. It drives a population of simulated
// clients over flow connections against the web-cluster or virtual-router
// topology, injects a fault, and reports what the clients experienced —
// goodput and error-rate timeline, per-class request counts (ok / reset /
// timeout / stale), latency before/during/after the fail-over, and the
// established connections lost at takeover. -fault names a preset: a short
// schedule in the model checker's fault vocabulary (check.Preset), played
// from the fault instant by the executor wackcheck's runs use. nic, crash
// and graceful fail, crash or drain the target's owner; flap, graylink and
// slownode run a gray-failure program (-shape) on the owner's interface for
// -gray-window under the -detector of choice; rolling drains and rejoins
// every server in turn, 2s apart, under the -placement policy of choice.
// -json emits one aggregate row, then one row per trial; -prom writes the
// trials' shared metrics registry in Prometheus text exposition format (-
// for stdout, after the rows). Its own flags (-clients, -mode, -rps,
// -think, -fault, -placement, -shape, -gray-window, -detector,
// -detect-timeout, -topology, -servers, -pre, -post, -prom) are a usage
// error under any other experiment.
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

	"wackamole/internal/check"
	"wackamole/internal/experiment"
	"wackamole/internal/experiment/runner"
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
	seed := fs.Int64("seed", 1, "base seed")
	parallel := fs.Int("parallel", 0, "worker goroutines per sweep (0 = GOMAXPROCS)")
	jsonOut := fs.Bool("json", false, "emit NDJSON result rows instead of tables")
	progress := fs.Bool("progress", false, "report per-trial progress on stderr")
	invariants := fs.Bool("invariants", false, "arm the always-on protocol-invariant monitors on every trial, report every violating trial and exit 1 on any (figure5, graceful, availability)")
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
	fs.StringVar(&a.fault, "fault", "nic", "fault preset: nic|crash|graceful (fail, crash or drain the target's owner), flap|graylink|slownode (a gray program for -gray-window), rolling (drain and rejoin every server)")
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
	// cfg is the availability experiment's configuration when it is
	// selected; its registry is what -prom writes.
	var cfg *experiment.AvailabilityConfig
	if *exp != "all" {
		selected = nil
		for _, name := range strings.Split(*exp, ",") {
			if name = strings.TrimSpace(name); name == "availability" {
				c, err := a.config()
				if err != nil {
					fmt.Fprintf(os.Stderr, "wacksim: %v\n", err)
					return 2
				}
				cfg = &c
				selected = append(selected, experiment.AvailabilityExperiment(c))
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
	if cfg != nil && len(selected) > 1 {
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
		{"-trace", *tracePath != "", honours(func(e experiment.Experiment) bool { return e.Trace })},
		{"-invariants", *invariants, honours(func(e experiment.Experiment) bool { return e.Invariants })},
		{"-sizes", *sizesFlag != "", honours(func(e experiment.Experiment) bool { return e.Sizes })},
	}
	fs.Visit(func(f *flag.Flag) {
		if !shared[f.Name] {
			rules = append(rules, rule{"-" + f.Name, true, cfg != nil})
		}
	})
	for _, f := range rules {
		if f.given && !f.honoured {
			fmt.Fprintf(os.Stderr, "wacksim: %s is not honoured by -experiment %s\n", f.name, *exp)
			return 2
		}
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
	violated := 0
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
		violated += reportViolations(os.Stderr, rows)
		if !*jsonOut {
			fmt.Fprintf(out, "%s\n\n%s\n", e.Title, e.Render(rows))
		}
	}
	if *invariants && !*jsonOut {
		if violated > 0 {
			fmt.Fprintf(out, "\ninvariants: %d violating trial(s)\n", violated)
		} else {
			fmt.Fprintln(out, "\ninvariants: all oracles held")
		}
	}
	if trace != nil {
		if err := trace.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "wacksim: %v\n", err)
			return 1
		}
	}
	if err := writeProm(out, a.prom, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "wacksim: %v\n", err)
		return 1
	}
	if violated > 0 {
		return 1
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
	// The preset checks the fault's name and a gray fault's -shape.
	preset, err := check.Preset(a.fault, 0, 1, a.shape, 0)
	if err != nil {
		return cfg, err
	}
	// A gray preset opens with its program; a gray-fault flag under a clean
	// fault would be silently dropped.
	if gray := preset[0].Shape != ""; a.shape != "" && !gray {
		return cfg, fmt.Errorf("-shape is not honoured by -fault %s", a.fault)
	} else if a.grayWindow != 0 && !gray {
		return cfg, fmt.Errorf("-gray-window is not honoured by -fault %s", a.fault)
	}
	topo, err := experiment.ParseTopology(a.topology)
	if err != nil {
		return cfg, err
	}
	det, err := gcs.ParseDetector(a.detector)
	if err != nil {
		return cfg, err
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
		Fault:      a.fault,
		Shape:      a.shape,
		GrayWindow: a.grayWindow,
		Placement:  a.placement,
		GCS:        gcfg,
		PreFault:   a.pre,
		PostFault:  a.post,
		Metrics:    metrics.New(),
	}, nil
}

// reportViolations prints each trial of rows whose monitor recorded an
// invariant violation and returns how many it printed. Each line names the
// trial's own seed and its point, which re-create the trial: for
// availability that is -seed S -trials 1 (plus -trace); a registry point
// offsets the base seed (figure5 by the cluster size).
func reportViolations(w io.Writer, rows []experiment.Row) int {
	n := 0
	for _, r := range rows {
		for _, s := range r.Samples {
			if s.Violation != nil {
				n++
				fmt.Fprintf(w, "wacksim: invariant violation (seed %d, point %s): %v\n", s.Seed, r.Point, s.Violation)
			}
		}
	}
	return n
}

// writeProm writes the availability trials' shared metrics registry in
// Prometheus exposition format to path ("-" is out); an empty path writes
// nothing.
func writeProm(out io.Writer, path string, cfg *experiment.AvailabilityConfig) error {
	switch path {
	case "":
		return nil
	case "-":
		return metrics.WritePrometheus(out, cfg.Metrics.Snapshot())
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = metrics.WritePrometheus(f, cfg.Metrics.Snapshot())
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
