// Package runner executes sweeps of independent, deterministically seeded
// simulation trials on a bounded worker pool. Every evaluation in
// internal/experiment — each table and figure of the paper's §6 — is a grid
// of (configuration × size) points, each measured over many seeded trials;
// since every trial builds its own simulator instance, the campaign is
// embarrassingly parallel. The runner provides the one harness all sweeps
// share: deterministic result ordering by (point, seed) regardless of worker
// count, per-trial error and panic capture that never aborts the sweep, a
// per-trial protocol-activity metrics struct aggregated into every result,
// and a pluggable progress sink.
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"wackamole/internal/invariant"
	"wackamole/internal/metrics"
	"wackamole/internal/obs"
)

// Metrics counts protocol activity observed during one trial, aggregated
// from the counters exposed by internal/gcs (daemon stats), internal/core
// (engine stats) and internal/netsim (network counters). Sweeps sum the
// metrics of every successful trial into their result rows, giving each
// data point the observability needed to debug divergent trials.
type Metrics struct {
	// MembershipsInstalled counts daemon-level configuration deliveries.
	MembershipsInstalled uint64 `json:"memberships_installed"`
	// ViewChanges counts entries into the discovery (gather) state.
	ViewChanges uint64 `json:"view_changes"`
	// TokenRotations counts token passes on the gcs ring.
	TokenRotations uint64 `json:"token_rotations"`
	// MessagesDelivered counts totally ordered messages handed to the
	// group layer.
	MessagesDelivered uint64 `json:"messages_delivered"`
	// Acquires and Releases count virtual-address movements driven by the
	// core engine.
	Acquires uint64 `json:"acquires"`
	Releases uint64 `json:"releases"`
	// ARPSpoofs counts unsolicited (gratuitous or targeted) ARP replies
	// actually injected into the simulated network (§5.1).
	ARPSpoofs uint64 `json:"arp_spoofs"`
	// FramesSent and FramesDropped count segment-level transmissions and
	// explicit loss draws across the whole simulated network.
	FramesSent    uint64 `json:"frames_sent"`
	FramesDropped uint64 `json:"frames_dropped"`
}

// add accumulates other into m.
func (m *Metrics) add(other Metrics) {
	m.MembershipsInstalled += other.MembershipsInstalled
	m.ViewChanges += other.ViewChanges
	m.TokenRotations += other.TokenRotations
	m.MessagesDelivered += other.MessagesDelivered
	m.Acquires += other.Acquires
	m.Releases += other.Releases
	m.ARPSpoofs += other.ARPSpoofs
	m.FramesSent += other.FramesSent
	m.FramesDropped += other.FramesDropped
}

// Sample is one trial's outcome: the measured quantity plus the protocol
// activity observed while measuring it.
type Sample struct {
	Value   time.Duration
	Metrics Metrics
	// Seed is the seed the trial ran under; the runner fills it in, so
	// trial functions may leave it zero.
	Seed int64
	// Trace carries the trial's structured event stream and fail-over
	// phase breakdown when the sweep requested tracing; nil otherwise.
	Trace *obs.TrialTrace
	// Latency carries the trial's latency-histogram registry snapshot when
	// the sweep requested tracing; zero otherwise. Snapshots of disjoint
	// trials merge associatively, so aggregation order never matters.
	Latency metrics.Snapshot
	// Violation is the first invariant violation the trial's monitor
	// observed when the sweep armed one; nil when monitoring was off or
	// every oracle held. It never fails the trial: the measured value
	// stands, and the caller gives the verdict.
	Violation *invariant.Violation
	// Detail carries an experiment-specific rich per-trial outcome beside
	// the measured value; the runner never inspects it.
	Detail any
}

// Trial runs one isolated, seeded simulation and returns its measurement.
// Trials must be self-contained (build their own simulator from the seed)
// so the runner may execute them concurrently.
type Trial func(seed int64) (Sample, error)

// Point is one grid point of a sweep: a labelled trial function and the
// seeds to measure it under.
type Point struct {
	// Label identifies the point in progress reports and errors
	// (e.g. "figure5/tuned/n=4").
	Label string
	Seeds []int64
	Run   Trial
}

// TrialError records one failed trial without aborting the sweep.
type TrialError struct {
	Point string
	Seed  int64
	Err   error
}

// Error implements error.
func (e TrialError) Error() string {
	return fmt.Sprintf("%s seed=%d: %v", e.Point, e.Seed, e.Err)
}

// Unwrap exposes the underlying trial error.
func (e TrialError) Unwrap() error { return e.Err }

// Result collects one point's outcomes in deterministic (seed) order.
type Result struct {
	Label string
	// Values holds the successful samples, ordered by their seed's position
	// in Point.Seeds — identical whatever the worker count.
	Values []time.Duration
	// Metrics sums the metrics of every successful trial.
	Metrics Metrics
	// Errors holds the failed trials (including recovered panics), ordered
	// by seed position.
	Errors []TrialError
	// Samples holds the successful trials' full samples in the same order
	// as Values (seed order), for callers that need per-trial metrics or
	// traces rather than the point aggregate.
	Samples []Sample
}

// Progress describes one completed trial, for progress sinks.
type Progress struct {
	Point string
	Seed  int64
	Err   error
	// Done of Total trials across the whole sweep have completed.
	Done, Total int
}

// String renders the progress line the command-line tools print:
// "[done/total] point seed=N ok" (or "error: …").
func (p Progress) String() string {
	status := "ok"
	if p.Err != nil {
		status = "error: " + p.Err.Error()
	}
	return fmt.Sprintf("[%d/%d] %s seed=%d %s", p.Done, p.Total, p.Point, p.Seed, status)
}

// Sink observes per-trial completion. The runner serializes calls, so
// implementations need no locking of their own.
type Sink interface {
	TrialDone(p Progress)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Progress)

// TrialDone implements Sink.
func (f SinkFunc) TrialDone(p Progress) { f(p) }

// Options configure a sweep execution.
type Options struct {
	// Workers bounds the number of concurrently executing trials;
	// values < 1 mean GOMAXPROCS.
	Workers int
	// Sink, if set, observes every trial completion.
	Sink Sink
}

// outcome is one trial's slot in the result grid.
type outcome struct {
	sample Sample
	err    error
}

// Run executes every (point, seed) trial of the grid on a bounded worker
// pool and returns one Result per point, in point order. A failing or
// panicking trial is recorded in its point's Errors and never aborts the
// sweep; callers decide whether a point with no successful trials is fatal.
func Run(points []Point, opts Options) []Result {
	workers := opts.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}

	type job struct{ point, seed int }
	var jobs []job
	for pi, p := range points {
		for si := range p.Seeds {
			jobs = append(jobs, job{pi, si})
		}
	}
	grid := make([][]outcome, len(points))
	for pi, p := range points {
		grid[pi] = make([]outcome, len(p.Seeds))
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	var (
		mu   sync.Mutex // serializes sink calls
		done int
	)
	report := func(j job, err error) {
		if opts.Sink == nil {
			return
		}
		mu.Lock()
		done++
		opts.Sink.TrialDone(Progress{
			Point: points[j.point].Label,
			Seed:  points[j.point].Seeds[j.seed],
			Err:   err,
			Done:  done,
			Total: len(jobs),
		})
		mu.Unlock()
	}

	queue := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				p := points[j.point]
				s, err := runTrial(p.Run, p.Seeds[j.seed])
				s.Seed = p.Seeds[j.seed]
				grid[j.point][j.seed] = outcome{sample: s, err: err}
				report(j, err)
			}
		}()
	}
	for _, j := range jobs {
		queue <- j
	}
	close(queue)
	wg.Wait()

	results := make([]Result, len(points))
	for pi, p := range points {
		res := Result{Label: p.Label}
		for si, o := range grid[pi] {
			if o.err != nil {
				res.Errors = append(res.Errors, TrialError{Point: p.Label, Seed: p.Seeds[si], Err: o.err})
				continue
			}
			res.Values = append(res.Values, o.sample.Value)
			res.Samples = append(res.Samples, o.sample)
			res.Metrics.add(o.sample.Metrics)
		}
		results[pi] = res
	}
	return results
}

// runTrial invokes t, converting a panic into an error so one diverging
// trial cannot kill the whole campaign.
func runTrial(t Trial, seed int64) (s Sample, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("runner: trial panicked: %v", r)
		}
	}()
	return t(seed)
}
