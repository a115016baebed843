// Command wacksim regenerates every table and figure of the paper's
// evaluation on the deterministic simulator:
//
//	wacksim -experiment all -trials 10 -parallel 8
//
// Experiments: table1, figure5, graceful, router, baselines, load,
// ablations, all (the registry experiment.Experiments). Output is markdown,
// suitable for pasting into EXPERIMENTS.md; -json emits one JSON object per
// result row (NDJSON) instead, and -format csv, -trace, -invariants and
// -sizes apply to the experiments whose descriptor honours them (a usage
// error when none selected does). Trials are independent simulations, so
// -parallel N spreads them over N workers without changing any number.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"wackamole/internal/experiment"
	"wackamole/internal/experiment/runner"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("wacksim", flag.ContinueOnError)
	exp := fs.String("experiment", "all", "experiments to run, comma-separated, or all (an unknown name lists the registered ones)")
	trials := fs.Int("trials", 10, "seeded trials per data point")
	format := fs.String("format", "markdown", "figure5 output format: markdown|csv")
	seed := fs.Int64("seed", 1, "base seed")
	parallel := fs.Int("parallel", 0, "worker goroutines per sweep (0 = GOMAXPROCS)")
	jsonOut := fs.Bool("json", false, "emit NDJSON result rows instead of tables")
	progress := fs.Bool("progress", false, "report per-trial progress on stderr")
	invariants := fs.Bool("invariants", false, "arm the always-on protocol-invariant monitors on every trial (figure5, graceful; a violation fails the trial)")
	tracePath := fs.String("trace", "", "capture per-trial structured event streams into this NDJSON file (figure5)")
	sizesFlag := fs.String("sizes", "", "comma-separated cluster sizes for figure5 (default: the paper's 2,4,6,8,10,12)")
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
	if *exp != "all" {
		selected = nil
		for _, name := range strings.Split(*exp, ",") {
			e, err := experiment.Lookup(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintf(os.Stderr, "wacksim: %v, or all\n", err)
				return 2
			}
			selected = append(selected, e)
		}
	}
	// A flag that no selected experiment honours would be silently dropped.
	for _, f := range []struct {
		name     string
		given    bool
		honoured func(experiment.Experiment) bool
	}{
		{"-trace", *tracePath != "", func(e experiment.Experiment) bool { return e.Trace }},
		{"-invariants", *invariants, func(e experiment.Experiment) bool { return e.Invariants }},
		{"-sizes", *sizesFlag != "", func(e experiment.Experiment) bool { return e.Sizes }},
		{"-format csv", *format == "csv", func(e experiment.Experiment) bool { return e.CSV != nil }},
	} {
		if f.given && !slices.ContainsFunc(selected, f.honoured) {
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
