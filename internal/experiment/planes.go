package experiment

import (
	"time"

	"wackamole"
	"wackamole/internal/experiment/runner"
	"wackamole/internal/invariant"
	"wackamole/internal/metrics"
	"wackamole/internal/obs"
	"wackamole/internal/sim"
)

// planes holds the observation planes one trial may carry — the event tracer
// with its per-trial latency registry, and the online invariant monitor. A
// nil field is a plane left off, and every method is a no-op for those. The
// planes only observe: they draw no randomness and schedule no simulator
// events, so a measured value is bit-identical with any of them on or off.
type planes struct {
	tr  *obs.Tracer
	reg *metrics.Registry
	mon *invariant.Monitor
}

// armPlanes builds the requested observers and allocates nothing for the
// ones left off. monitor configures the invariant monitor, whose violations
// are traced when tracing is on too.
func armPlanes(trace, invariants bool, monitor invariant.Config) *planes {
	p := &planes{}
	if trace {
		p.tr = obs.New(0, nil)
	}
	if invariants {
		monitor.Tracer = p.tr
		p.mon = invariant.New(monitor)
	}
	return p
}

// cluster is the wackamole.ClusterOptions hook that wires the planes into
// every server of a simulated cluster; a traced cluster also gets the
// per-trial registry its latency histograms land in.
func (p *planes) cluster(o *wackamole.ClusterOptions) {
	if p.tr != nil {
		p.reg = metrics.New()
		o.Tracer = p.tr
		o.Metrics = p.reg
	}
	o.Invariants = p.mon
}

// setClock points the planes at the trial's virtual time: the tracer
// stamps events with it and the monitor stamps violations with the time
// elapsed since this call.
func (p *planes) setClock(s *sim.Sim) {
	if p.tr != nil {
		p.tr.SetNow(s.Now)
	}
	if p.mon != nil {
		epoch := s.Now()
		p.mon.SetNow(func() time.Duration { return s.Now().Sub(epoch) })
	}
}

// verify, given a cluster, runs it for settle to a resting state and probes
// the settled-state oracles; it returns the first violation the monitor
// saw. Call after the measured value is extracted: the extra simulated time
// is monitoring-only and cannot perturb the sample.
func (p *planes) verify(c *wackamole.Cluster, settle time.Duration) *invariant.Violation {
	if p.mon == nil {
		return nil
	}
	if c != nil {
		if settle > 0 {
			c.RunFor(settle)
		}
		p.mon.CheckSettled(c.InvariantView(), c.RunFor)
	}
	return p.mon.Violation()
}

// attach fills a traced trial's sample with its event stream, how many
// events the ring evicted, the fail-over phase breakdown of the measured gap
// and the latency snapshot (empty without a registry). The events are the
// tracer's read-only snapshot, kept as handed over rather than copied.
func (p *planes) attach(sample *runner.Sample, gapStart, gapEnd time.Time, target string) {
	if p.tr == nil {
		return
	}
	events := p.tr.Snapshot()
	sample.Trace = &obs.TrialTrace{
		Events:   events,
		Dropped:  p.tr.Dropped(),
		Phases:   obs.FailoverBreakdown(events, gapStart, gapEnd, target),
		GapStart: gapStart,
		GapEnd:   gapEnd,
		Target:   target,
	}
	sample.Latency = p.reg.Snapshot()
}
