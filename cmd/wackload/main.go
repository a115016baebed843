// Command wackload measures request-level availability: it drives a
// population of simulated clients over flow connections against the
// web-cluster or virtual-router topology, injects a fault, and reports what
// the clients experienced — goodput and error-rate timeline, per-class
// request counts (ok / reset / timeout / stale), latency before/during/
// after the fail-over, and the number of established connections lost at
// takeover:
//
//	wackload -clients 1000 -mode open -rps 5000 -fault nic -json
//
// Besides the paper's clean faults (nic, crash, graceful) the -fault flag
// accepts the gray-failure shapes flap, graylink and slownode: ongoing
// impairments applied to the target's owner for -gray-window, with
// -detector selecting fixed-timeout or phi-accrual failure detection and
// the per-trial output reporting detection latency and false suspicions.
//
// -fault rolling is the rolling-upgrade schedule: every server is drained
// and rejoined in sequence under continuous traffic, and the report breaks
// disruption down per restart phase. -placement selects the VIP placement
// policy (least-loaded or minimal) so the two can be compared at equal
// offered load:
//
//	wackload -fault rolling -placement minimal -mode open -rps 400 -invariants -json
//
// Output is a per-trial table; -json emits NDJSON rows like wacksim (one
// aggregate row, then one row per trial), -trace captures per-trial
// structured event streams, and -prom writes the trials' shared metrics
// registry (including the load_request_latency_seconds histogram family) in
// Prometheus text exposition format — the same bytes a /metrics endpoint
// would serve. Trials are independent seeded simulations, so -parallel N
// spreads them over N workers without changing any number in the output.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
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

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("wackload", flag.ContinueOnError)
	clients := fs.Int("clients", 200, "concurrent simulated clients")
	mode := fs.String("mode", "closed", "workload shape: open|closed")
	rps := fs.Float64("rps", 1000, "aggregate Poisson arrival rate (open loop)")
	think := fs.Duration("think", time.Second, "per-client think time (closed loop)")
	fault := fs.String("fault", "nic", "injected fault: nic|crash|graceful|flap|graylink|slownode|rolling")
	placementName := fs.String("placement", "", "VIP placement policy: least-loaded|minimal (\"\" = least-loaded; web topology)")
	shape := fs.String("shape", "", "fault program for gray faults (internal/faults spec syntax; \"\" = the kind's default)")
	grayWindow := fs.Duration("gray-window", 0, "how long a gray fault stays applied (0 = half of -post)")
	detector := fs.String("detector", "fixed", "gcs failure detector: fixed|phi")
	detectTimeout := fs.Duration("detect-timeout", 0, "override the gcs fixed fault-detect timeout T (0 = tuned profile's 1s); under -detector phi this is the fallback floor")
	topology := fs.String("topology", "web", "scenario: web|router")
	servers := fs.Int("servers", 4, "web-cluster size")
	trials := fs.Int("trials", 3, "seeded trials")
	seed := fs.Int64("seed", 1, "base seed")
	parallel := fs.Int("parallel", 0, "worker goroutines (0 = GOMAXPROCS)")
	pre := fs.Duration("pre", 0, "fault-free measurement window (0 = default 4s)")
	post := fs.Duration("post", 0, "post-fault run time (0 = fail-over bound + window)")
	jsonOut := fs.Bool("json", false, "emit NDJSON result rows instead of a table")
	invariants := fs.Bool("invariants", false, "arm the always-on protocol-invariant monitors on every trial (violations exit nonzero)")
	tracePath := fs.String("trace", "", "capture per-trial structured event streams into this NDJSON file")
	promPath := fs.String("prom", "", "write the shared metrics registry in Prometheus exposition format (- for stdout)")
	progress := fs.Bool("progress", false, "report per-trial progress on stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trials <= 0 {
		fmt.Fprintln(os.Stderr, "wackload: -trials must be positive")
		return 2
	}
	m, err := load.ParseMode(*mode)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wackload: %v\n", err)
		return 2
	}
	fk, err := experiment.ParseFaultKind(*fault)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wackload: %v\n", err)
		return 2
	}
	// A gray-fault flag under a clean fault would be silently dropped.
	for _, f := range []struct {
		name  string
		given bool
	}{{"-shape", *shape != ""}, {"-gray-window", *grayWindow != 0}} {
		if f.given && !fk.Gray() {
			fmt.Fprintf(os.Stderr, "wackload: %s is not honoured by -fault %s\n", f.name, fk)
			return 2
		}
	}
	topo, err := experiment.ParseTopology(*topology)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wackload: %v\n", err)
		return 2
	}
	det, err := gcs.ParseDetector(*detector)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wackload: %v\n", err)
		return 2
	}
	if *shape != "" {
		if _, err := faults.ParseProgram(*shape); err != nil {
			fmt.Fprintf(os.Stderr, "wackload: %v\n", err)
			return 2
		}
	}
	if _, err := placement.New(*placementName); err != nil {
		fmt.Fprintf(os.Stderr, "wackload: %v\n", err)
		return 2
	}

	gcfg := gcs.TunedConfig()
	gcfg.Detector = det
	if *detectTimeout > 0 {
		if *detectTimeout <= gcfg.HeartbeatInterval {
			fmt.Fprintf(os.Stderr, "wackload: -detect-timeout must exceed the heartbeat interval (%v)\n", gcfg.HeartbeatInterval)
			return 2
		}
		gcfg.FaultDetectTimeout = *detectTimeout
	}
	reg := metrics.New()
	cfg := experiment.AvailabilityConfig{
		Topology:   topo,
		Servers:    *servers,
		Clients:    *clients,
		Mode:       m,
		RPS:        *rps,
		ThinkTime:  *think,
		Fault:      fk,
		Shape:      *shape,
		GrayWindow: *grayWindow,
		Placement:  *placementName,
		GCS:        gcfg,
		PreFault:   *pre,
		PostFault:  *post,
		Invariants: *invariants,
		Metrics:    reg,
		Trace:      *tracePath != "",
	}
	opts := []experiment.Option{experiment.Parallel(*parallel)}
	if *progress {
		opts = append(opts, experiment.WithSink(runner.SinkFunc(func(p runner.Progress) {
			fmt.Fprintf(os.Stderr, "wackload: %v\n", p)
		})))
	}

	row, err := experiment.Availability(*seed, *trials, cfg, opts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wackload: %v\n", err)
		return 1
	}

	results := experiment.AvailabilityResults(row)

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wackload: %v\n", err)
			return 1
		}
		if err := experiment.WriteTrace(f, []experiment.Row{row}); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "wackload: %v\n", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "wackload: %v\n", err)
			return 1
		}
	}
	if *promPath != "" {
		w := out
		if *promPath != "-" {
			f, err := os.Create(*promPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "wackload: %v\n", err)
				return 1
			}
			defer f.Close()
			w = f
		}
		if err := metrics.WritePrometheus(w, reg.Snapshot()); err != nil {
			fmt.Fprintf(os.Stderr, "wackload: %v\n", err)
			return 1
		}
	}

	// Invariant verdict: report every violating trial and exit nonzero, so
	// large-scale runs double as model-checking runs (CI gates on this).
	// Each line names the seed and the point: rerunning this command with
	// that -seed and -trials 1 (plus -trace) re-creates the trial.
	violated := 0
	for _, r := range results {
		if r.Violation != nil {
			violated++
			fmt.Fprintf(os.Stderr, "wackload: invariant violation (seed %d, point %s): %v\n", r.Seed, cfg.Label(), r.Violation)
		}
	}

	if *jsonOut {
		if err := experiment.WriteNDJSON(out, experiment.AvailabilityRows(row)); err != nil {
			fmt.Fprintf(os.Stderr, "wackload: %v\n", err)
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
	if cfg.Invariants {
		if violated > 0 {
			fmt.Fprintf(out, "\ninvariants: %d violating trial(s)\n", violated)
			return 1
		}
		fmt.Fprintln(out, "\ninvariants: all oracles held")
	}
	return 0
}
