package experiment

import (
	"cmp"
	"fmt"
	"strings"

	"wackamole/internal/experiment/runner"
)

// sweep.go is the experiment pipeline: an experiment is a value, and Sweep
// is the one loop that runs any of them on the shared trial runner and folds
// every grid point into a Row. The table, the NDJSON row (json.go) and the
// trace stream (trace.go) are all views of that Row.

// Experiment describes one evaluation of the paper as data.
type Experiment struct {
	// Name is the registry key and the "experiment" field of every NDJSON
	// row; Title heads the rendered table.
	Name, Title string
	// Unit names the measured quantity (what a row's statistics are).
	Unit string
	// Trace, Invariants and Sizes state which optional sweep inputs the
	// experiment's trials honour: WithTrace, WithInvariants and Grid.Sizes.
	// An experiment that does not honour one runs exactly as without it.
	Trace, Invariants, Sizes bool
	// Points enumerates the grid: one Point per row of the result.
	Points func(g Grid) []Point
	// Render formats the rows as the experiment's markdown table.
	Render func(rows []Row) string
	// Expand, when set, replaces each point's row with the rows it returns
	// before any view (table, NDJSON, trace) sees them: availability
	// publishes its aggregate row under its full label and follows it with
	// one row per trial.
	Expand func(r Row) []Row
}

// Point is one grid point: a labelled trial function and what distinguishes
// its row from its neighbours'.
type Point struct {
	// Label names the point within its experiment ("tuned/n=4").
	Label string
	// Cols are the point's identifying table cells (configuration, size…).
	Cols []string
	// Unit overrides the experiment's unit for this point's row.
	Unit string
	// SeedOffset shifts the grid's base seed for this point, so points
	// that differ only in size do not replay one another's seeds.
	SeedOffset int64
	Run        runner.Trial
	// Extra, if set, computes the row's experiment-specific scalars from
	// the aggregated row.
	Extra func(r Row) map[string]float64
}

// Row is one grid point's result, the single source of the point's table
// line, its NDJSON row and its share of the trace stream.
type Row struct {
	Experiment, Point, Unit string
	Cols                    []string
	// Stat and Metrics summarize the successful trials, which Samples holds
	// in seed order (traced ones with their event stream and phase
	// breakdown); Errors counts the failed trials.
	Stat    Stat
	Errors  int
	Metrics runner.Metrics
	Extra   map[string]float64
	Samples []runner.Sample
}

// Grid is what one sweep invocation fixes for every point: the base seed,
// the trials per point and, for experiments that honour it, the cluster
// sizes to cover (nil means the experiment's own).
type Grid struct {
	Seed   int64
	Trials int
	Sizes  []int

	// Resolved from the sweep's options.
	run               runner.Options
	trace, invariants bool
}

// Option adjusts how a sweep executes its trials (parallelism, progress
// reporting, tracing). Measurement semantics never depend on options: for
// the same seeds, any worker count — traced or not — produces identical
// rows.
type Option func(*Grid)

// Parallel bounds the number of concurrently executing trials; values < 1
// mean GOMAXPROCS.
func Parallel(workers int) Option {
	return func(g *Grid) { g.run.Workers = workers }
}

// WithSink installs a per-trial progress observer.
func WithSink(s runner.Sink) Option {
	return func(g *Grid) { g.run.Sink = s }
}

// WithTrace makes every trial of an experiment that honours tracing capture
// a structured event stream and attach it — with its fail-over phase
// breakdown — to the trial's Sample. Tracing is observation-only: it
// consumes no randomness and schedules nothing, so traced statistics are
// identical to untraced ones.
func WithTrace() Option {
	return func(g *Grid) { g.trace = true }
}

// WithInvariants arms an always-on invariant.Monitor (the five model-
// checker oracles) on every trial's cluster, for experiments that honour
// monitoring. Like tracing it is observation-only — hooks consume no
// randomness and schedule nothing, so measured rows are identical with
// monitoring on or off; a trial's first violation is recorded on its
// Sample, and the caller gives the verdict.
func WithInvariants() Option {
	return func(g *Grid) { g.invariants = true }
}

// Experiments is the paper's evaluation in presentation order: what
// `wacksim -experiment all` runs and BenchmarkExperiment iterates.
var Experiments = []Experiment{
	table1, figure5, graceful, routerComparison, baselines, loadSensitivity, ablations,
}

// Lookup finds a registered experiment by name; the error lists the names
// there are.
func Lookup(name string) (Experiment, error) {
	var names []string
	for _, e := range Experiments {
		if e.Name == name {
			return e, nil
		}
		names = append(names, e.Name)
	}
	return Experiment{}, fmt.Errorf("experiment: unknown experiment %q (want %s)", name, strings.Join(names, "|"))
}

// Sweep runs every (point, seed) trial of the experiment's grid and returns
// one Row per point (or the rows Expand makes of it), in point order.
func Sweep(e Experiment, g Grid, opts ...Option) ([]Row, error) {
	for _, opt := range opts {
		opt(&g)
	}
	points := e.Points(g)
	trials := make([]runner.Point, len(points))
	for i, p := range points {
		trials[i] = runner.Point{Label: e.Name + "/" + p.Label, Seeds: seeds(g.Seed+p.SeedOffset, g.Trials), Run: p.Run}
	}
	rows := make([]Row, 0, len(points))
	for i, res := range runner.Run(trials, g.run) {
		p := points[i]
		row := Row{Experiment: e.Name, Point: p.Label, Unit: cmp.Or(p.Unit, e.Unit), Cols: p.Cols}
		if err := collectPoint(res, &row); err != nil {
			return nil, err
		}
		if p.Extra != nil {
			row.Extra = p.Extra(row)
		}
		if e.Expand != nil {
			rows = append(rows, e.Expand(row)...)
		} else {
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// collectPoint summarizes one point's results into its row. Per-trial
// errors are tolerated and counted; only a point with no surviving trial
// aborts the sweep, reporting the first error as the cause.
func collectPoint(res runner.Result, row *Row) error {
	row.Errors = len(res.Errors)
	if len(res.Values) == 0 {
		if row.Errors == 0 {
			return fmt.Errorf("experiment: %s: no trials", res.Label)
		}
		return fmt.Errorf("experiment: %s: all %d trials failed: %w", res.Label, row.Errors, res.Errors[0])
	}
	row.Stat, row.Metrics, row.Samples = summarize(res.Values), res.Metrics, res.Samples
	return nil
}
