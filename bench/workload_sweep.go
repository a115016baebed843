package main

import (
	"fmt"
	"time"

	"wackamole"
	"wackamole/internal/experiment"
	"wackamole/internal/experiment/runner"
	"wackamole/internal/gcs"
	"wackamole/internal/obs"
)

// failover_sweep: the paper's own evaluation. Trial j runs under seed
// base + seedStride·j and contributes three ops: Table1Trial at N=5,
// Figure5Trial at N=4 and Figure5Trial at N=12, all with the tuned
// timeouts. Every op builds a fresh cluster, warms it up, fails a NIC and
// measures the gap.
type sweepWorkload struct {
	ops []sweepOp
	// ref is the census: op i re-composed from exported parts, with the
	// simulator-level counters the trial functions do not return.
	ref       []opOut
	refSpans  map[string][]time.Duration
	refEvents map[string]float64
}

type sweepOp struct {
	table1  bool
	servers int
	seed    int64
}

// The interruption band a tuned-config op must land in: the paper's Table 1
// and Figure 5 range (2–2.4 s) with slack.
const (
	sweepGapMin = 1500 * time.Millisecond
	sweepGapMax = 3500 * time.Millisecond
)

// sweepPhases are the spans of a re-composed trial, in order.
var sweepPhases = []string{"build", "warmup", "fault_to_recovery", "collect"}

func sweepOps(seed int64, ops int) []sweepOp {
	out := make([]sweepOp, ops)
	for i := range out {
		s := seed + seedStride*int64(i/3)
		switch i % 3 {
		case 0:
			out[i] = sweepOp{table1: true, servers: 5, seed: s}
		case 1:
			out[i] = sweepOp{servers: 4, seed: s}
		case 2:
			out[i] = sweepOp{servers: 12, seed: s}
		}
	}
	return out
}

// 15 ops per budget second: at the default 12 s, 60 trials × 3 ops ≈ 1.6 s
// per pass at the ≈ 110 ops/s this mix runs at on the reference box (the
// census costs about a pass and a half more).
func (w *sweepWorkload) opsFor(seconds int) int { return 3 * 5 * seconds }

func (w *sweepWorkload) cycle() int { return 3 }

func (w *sweepWorkload) prepare(seed int64, ops int) error {
	w.ops = sweepOps(seed, ops)
	// Warm the allocator and the heap with one op of each kind, under a
	// seed no timed op uses.
	for _, op := range sweepOps(seed-1, 3) {
		if _, err := op.trial(); err != nil {
			return err
		}
	}
	return nil
}

func (op sweepOp) trial() (runner.Sample, error) {
	if op.table1 {
		return experiment.Table1Trial(op.seed, op.servers, gcs.TunedConfig())
	}
	return experiment.Figure5Trial(op.seed, op.servers, gcs.TunedConfig())
}

func (w *sweepWorkload) do(i int) (opOut, time.Duration) {
	t0 := time.Now()
	s, err := w.ops[i].trial()
	d := time.Since(t0)
	out := w.ref[i]
	switch {
	case err != nil:
		out.fail = err.Error()
	case out.fail != "":
		// The census already found the op wrong.
	case s.Value != out.interruption || !sameSample(s.Metrics, out.counts):
		out.fail = fmt.Sprintf("trial function and re-composed trial disagree: %v vs %v", s.Value, out.interruption)
	}
	return out, d
}

func (w *sweepWorkload) spans() map[string][]time.Duration { return w.refSpans }

func (w *sweepWorkload) extras(m metricSet) {
	for name, v := range w.refEvents {
		m[name] = v
	}
}

// sameSample reports whether a trial function's sample carries the same
// protocol activity as a census entry, over the counters a sample has.
func sameSample(m runner.Metrics, c counts) bool {
	return m == runner.Metrics{
		FramesSent: c.frames, FramesDropped: c.framesDropped, ARPSpoofs: c.arpSpoofs,
		TokenRotations: c.tokens, MembershipsInstalled: c.memberships, ViewChanges: c.reconfigs,
		MessagesDelivered: c.delivered, Acquires: c.acquires, Releases: c.releases,
	}
}

// census runs every op once, re-composed from the exported parts of the
// trial functions, with a span around each public call.
func (w *sweepWorkload) census(seed int64, ops int, trace bool) error {
	list := sweepOps(seed, ops)
	w.ref = make([]opOut, ops)
	w.refSpans = map[string][]time.Duration{}
	events := map[string]uint64{}
	for i, op := range list {
		out, spans, fired := op.recomposed(trace)
		w.ref[i] = out
		for k, phase := range sweepPhases {
			name := "experiment." + phase + "_ms_p50"
			w.refSpans[name] = append(w.refSpans[name], spans[k])
			events["experiment."+phase+"_events"] += fired[k]
		}
	}
	w.refEvents = map[string]float64{}
	for name, n := range events {
		w.refEvents[name] = float64(n) / float64(ops)
	}
	return nil
}

// recomposed is one trial built from NewCluster / NewWebCluster, WarmUp,
// FailServer and MeasureInterruption, exactly as Table1Trial and
// Figure5Trial compose them, but with the cluster in hand: it returns the
// simulator-level counters, one host-time span and one event count per
// phase, and checks VIP coverage once the measurement is taken.
func (op sweepOp) recomposed(trace bool) (out opOut, spans [4]time.Duration, fired [4]uint64) {
	cfg := gcs.TunedConfig()
	var c *wackamole.Cluster
	var wc *experiment.WebCluster
	var tr *obs.Tracer
	var gapStart, gapEnd time.Time
	var peak int
	mark := time.Now()
	var events uint64
	phase := func(k int) {
		now := time.Now()
		spans[k] = now.Sub(mark)
		mark = now
		if c != nil {
			fired[k] = c.Sim.Fired() - events
			events = c.Sim.Fired()
			if p := c.Sim.Pending(); p > peak {
				peak = p
			}
		}
	}
	fail := func(err error) (opOut, [4]time.Duration, [4]uint64) {
		out.fail = err.Error()
		return out, spans, fired
	}

	// build
	var err error
	if op.table1 {
		c, err = wackamole.NewCluster(wackamole.ClusterOptions{Seed: op.seed, Servers: op.servers, VIPs: 10, GCS: cfg})
	} else {
		var mods []func(*wackamole.ClusterOptions)
		if trace {
			tr = obs.New(0, nil)
			mods = append(mods, func(o *wackamole.ClusterOptions) { o.Tracer = tr })
		}
		wc, err = experiment.NewWebCluster(op.seed, op.servers, cfg, mods...)
		if err == nil {
			c = wc.Cluster
		}
	}
	if err != nil {
		return fail(err)
	}
	phase(0)

	// warmup
	if op.table1 {
		c.Settle()
		c.RunFor(time.Duration(c.Sim.Rand().Int63n(int64(cfg.HeartbeatInterval))))
	} else {
		wc.WarmUp(cfg)
	}
	phase(1)

	// fault_to_recovery
	if op.table1 {
		var installedAt time.Duration
		c.Servers[0].Node.Daemon().SetMembershipHandler(func(_ gcs.RingID, members []gcs.DaemonID) {
			if len(members) == op.servers-1 && installedAt == 0 {
				installedAt = c.Sim.Elapsed()
			}
		})
		faultAt := c.Sim.Elapsed()
		c.FailServer(op.servers - 1)
		maxWait := 3 * (cfg.FaultDetectTimeout + cfg.DiscoveryTimeout)
		for waited := time.Duration(0); waited < maxWait && installedAt == 0; waited += 100 * time.Millisecond {
			c.RunFor(100 * time.Millisecond)
		}
		if installedAt == 0 {
			return fail(fmt.Errorf("no membership installed within %v", maxWait))
		}
		out.interruption = installedAt - faultAt
	} else {
		victim, holders := wc.Owner(wc.Target)
		if holders != 1 {
			return fail(fmt.Errorf("%d holders of the target before fault", holders))
		}
		wc.FailServer(victim)
		gap, err := wc.MeasureInterruption(4 * (cfg.FaultDetectTimeout + cfg.DiscoveryTimeout))
		if err != nil {
			return fail(err)
		}
		if gap.To == gap.From {
			return fail(fmt.Errorf("service resumed on the failed server %q", gap.To))
		}
		out.interruption = gap.Duration()
		gapStart, gapEnd = gap.Start, gap.End
	}
	phase(2)

	// collect
	out.simElapsed = c.Sim.Elapsed()
	out.counts = clusterCounts(c)
	if tr != nil {
		out.phases = obs.FailoverBreakdown(tr.Snapshot(), gapStart, gapEnd, wc.Target.String())
	}
	phase(3)
	out.pendingPeak = uint64(peak)

	if out.interruption < sweepGapMin || out.interruption > sweepGapMax {
		out.fail = fmt.Sprintf("interruption %v outside [%v, %v]", out.interruption, sweepGapMin, sweepGapMax)
		return out, spans, fired
	}
	// The measurement is taken; give the survivors a simulated second to
	// finish reallocating and check Property 1. This extra time is in no
	// counter above.
	c.RunFor(time.Second)
	if bad := uncovered(c); bad != "" {
		out.fail = bad
	}
	return out, spans, fired
}

func (w *sweepWorkload) release() {}
