package check

import (
	"fmt"
	"time"

	"wackamole"
	"wackamole/internal/faults"
	"wackamole/internal/flow"
	"wackamole/internal/gcs"
	"wackamole/internal/invariant"
	"wackamole/internal/load"
	"wackamole/internal/metrics"
	"wackamole/internal/obs"
)

// Options parameterize one checked run. The zero value is usable: tuned
// timeouts, no trace, no metrics, no mutation. The run's timing bounds are
// not options: Run derives its settle and stability bounds from GCS.
type Options struct {
	// GCS sets the group-communication timeouts (zero: gcs.TunedConfig).
	GCS gcs.Config
	// RepresentativeDecisions enables the §4.2 variant.
	RepresentativeDecisions bool
	// Trace captures the structured event stream into the report (and
	// thence into artifacts).
	Trace bool
	// Metrics, when set, receives the checker counters: check_schedules_total,
	// check_steps_total, check_violations_total, check_shrink_iterations_total.
	Metrics *metrics.Registry
	// Mutation injects a deliberate defect (checker self-tests only).
	Mutation Mutation
}

const (
	// balanceTimeout is the engine's balance timeout in checked runs, short
	// enough that balancing completes well inside the settle bound.
	balanceTimeout = 5 * time.Second
	// jitterWindow bounds how long an opJitter scheduling-delay window stays
	// open. The delay magnitude is half the detection margin, so skewed
	// probes can time out spuriously but the system must always
	// re-converge.
	jitterWindow = 2 * time.Second
)

func (o Options) withDefaults() Options {
	if o.GCS == (gcs.Config{}) {
		o.GCS = gcs.TunedConfig()
	}
	return o
}

// settleBound computes the convergence deadline the checker grants after
// the last fault: how long a correct cluster can possibly need to detect
// the change and re-form. Token-loss and fault detection run first, then up
// to four cascaded reconfiguration rounds (merges can restart discovery),
// then the session reconnect interval and reallocation slack — generous,
// but a function of the configuration, not a magic constant.
func settleBound(cfg gcs.Config) time.Duration {
	round := cfg.DiscoveryTimeout + cfg.FormTimeout() + cfg.RecoveryTimeout()
	return cfg.TokenLossTimeout() + cfg.FaultDetectTimeout + 4*round + 2*time.Second + 3*time.Second
}

// Report is the outcome of one checked run.
type Report struct {
	Schedule Schedule
	// Violation is nil when every oracle held. The run stops at the first
	// violation, so a nil Violation means every event was applied.
	Violation *invariant.Violation
	// Elapsed is the virtual time the run covered.
	Elapsed time.Duration
	// Dropped counts the entries the invariant monitor's bounds forgot
	// (invariant.Monitor.Dropped); the verdict is exact when it is 0.
	Dropped uint64
	// Trace holds the structured event stream when Options.Trace was set.
	Trace []obs.Event
}

// Run executes one fault program under the oracles. The error return is for
// malformed schedules and harness failures only; protocol misbehaviour is
// reported in Report.Violation.
func Run(s Schedule, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	if s.Servers < 2 || s.Servers > MaxServers {
		return nil, fmt.Errorf("check: schedule needs 2..%d servers, got %d", MaxServers, s.Servers)
	}
	if s.VIPs < 1 {
		return nil, fmt.Errorf("check: schedule needs at least one VIP, got %d", s.VIPs)
	}
	var span time.Duration
	for _, ev := range s.Events {
		span = max(span, ev.At)
		switch ev.Op {
		case opPartition, opHeal:
		default:
			if ev.Server < 0 || ev.Server >= s.Servers {
				return nil, fmt.Errorf("check: event %s targets server outside 0..%d", ev, s.Servers-1)
			}
		}
		if ev.Op == opShape {
			if _, err := faults.ParseProgram(ev.Shape); err != nil {
				return nil, fmt.Errorf("check: event %s: %w", ev, err)
			}
		}
	}

	opts.Metrics.Counter("check_schedules_total", "fault programs executed by the checker").Inc()
	steps := opts.Metrics.Counter("check_steps_total", "schedule events applied by the checker")
	violations := opts.Metrics.Counter("check_violations_total", "oracle violations detected")
	// Pre-register the traffic-subsystem counter families so wackcheck's
	// counter report (which flattens every counter in the registry, -mutate
	// runs included) sees a stable family set whether or not a schedule
	// drives flow traffic.
	flow.RegisterClientMetrics(opts.Metrics)
	flow.RegisterServerMetrics(opts.Metrics)
	load.Register(opts.Metrics)

	var tracer *obs.Tracer
	if opts.Trace {
		tracer = obs.New(0, nil)
	}

	var c *wackamole.Cluster
	var x *Executor
	var start time.Time
	ppBound, ppWindow, fsBound := grayBounds(s, opts)
	// The checker runs the same bounded monitor as every other consumer and
	// reports what its bounds forgot in Report.Dropped. It gets no metrics
	// registry or tracer of its own: wackcheck's counter report flattens
	// every registry family and its trace artifacts must stay
	// workload-only. The churn oracle is armed at the schedule's per-view
	// ceiling, s.VIPs: under the default least-loaded policy one
	// reconfiguration may legitimately reshuffle everything, so the ceiling
	// guards the relocation accounting rather than the policy.
	o := invariant.New(invariant.Config{
		Nodes: s.Servers,
		Now: func() time.Duration {
			if c == nil {
				return 0
			}
			return c.Sim.Now().Sub(start)
		},
		PingPongBound:     ppBound,
		PingPongWindow:    ppWindow,
		FalseSuspectBound: fsBound,
		ChurnBound:        s.VIPs,
	})

	daemonIdx := make(map[string]int, s.Servers)

	copts := wackamole.ClusterOptions{
		Seed:                    s.Seed,
		Servers:                 s.Servers,
		VIPs:                    s.VIPs,
		GCS:                     opts.GCS,
		BalanceTimeout:          balanceTimeout,
		RepresentativeDecisions: opts.RepresentativeDecisions,
		Tracer:                  tracer,
		Invariants:              o,
	}
	if fsBound > 0 {
		// Each daemon reports its detections; the judge compares against
		// ground truth the harness alone can see (host liveness, interface
		// state, partition sides, live fault programs) and charges the
		// false-suspect oracle only for detections of reachable peers.
		copts.OnNode = func(i int, n *wackamole.Node) {
			daemonIdx[string(n.Daemon().ID())] = i
			n.Daemon().SetDetectionHook(func(peer, detector string) {
				j, ok := daemonIdx[peer]
				if !ok {
					return
				}
				if x != nil && x.falseSuspicion(i, j) {
					o.OnFalseSuspicion(i, peer)
				}
			})
		}
	}
	if opts.Mutation != nil {
		copts.WrapBackend = opts.Mutation.wrap
	}
	var err error
	c, err = wackamole.NewCluster(copts)
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	x = NewExecutor(c.Sim, opts.GCS, c.Segment, c.Servers)
	start = c.Sim.Now()

	report := func() *Report {
		rep := &Report{
			Schedule:  s,
			Violation: o.Violation(),
			Elapsed:   c.Sim.Now().Sub(start),
			Dropped:   o.Dropped(),
		}
		if tracer != nil {
			rep.Trace = tracer.Snapshot()
		}
		if rep.Violation != nil {
			violations.Inc()
		}
		return rep
	}

	c.Settle()
	if o.Violation() != nil {
		return report(), nil
	}

	// Play stops any fault program still live before the settle bound: the
	// oracles judge a cluster that has been allowed to re-converge on clean
	// links (shrunk schedules may have lost their clear events).
	base := c.Sim.Now()
	executed := x.Play(s.Events, base, base.Add(span), func(applied int) bool {
		o.SetStep(applied)
		return o.Violation() != nil
	})
	for range executed {
		steps.Inc()
	}

	if o.Violation() == nil {
		o.SetStep(executed)
		c.RunFor(settleBound(opts.GCS))
	}
	if o.Violation() == nil {
		o.CheckSettled(c.InvariantView(), c.RunFor)
	}
	if o.Violation() == nil {
		// The stability window: a quiet period after the settle check in
		// which no further view installation may occur.
		before, quiet := o.Installs(), opts.GCS.FaultDetectTimeout+opts.GCS.DiscoveryTimeout+2*time.Second
		c.RunFor(quiet)
		if o.Violation() == nil && o.Installs() != before {
			o.Fail(invariant.OracleConvergence,
				"membership still changing after the settle bound: %d further view installations during the %v stability window",
				o.Installs()-before, quiet)
		}
		if o.Violation() == nil {
			o.CheckSettled(c.InvariantView(), c.RunFor)
		}
	}

	return report(), nil
}

// falseSuspicion decides whether observer declaring peer failed
// contradicts ground truth: the peer's host alive, its interface up, both
// sides of the claim in the same partition component, and neither side
// flapping or inside a jitter window.
func (x *Executor) falseSuspicion(observer, peer int) bool {
	po, pp := x.servers[observer], x.servers[peer]
	if !pp.Host.Alive() || !pp.NIC.Up() || !po.NIC.Up() {
		return false
	}
	if x.flaps(observer) || x.flaps(peer) {
		return false
	}
	now := x.sim.Now()
	if now.Before(x.jitterUntil[observer]) || now.Before(x.jitterUntil[peer]) {
		return false
	}
	return x.seg.PartitionGroup(po.NIC) == x.seg.PartitionGroup(pp.NIC)
}

// flaps reports whether server i runs a fault program that flaps its
// interface: its silence is genuine.
func (x *Executor) flaps(i int) bool { return x.bindings[i] != nil && x.bindings[i].HasFlap() }

// grayBounds derives the gray-oracle arming from the schedule and the
// serialized options alone, so an artifact replays under the bounds it was
// found with: they are computed from the shape events (flap cadence for
// ping-pong, cumulative impaired time for false suspicion), and both
// oracles stay disarmed for shape-free schedules.
func grayBounds(s Schedule, opts Options) (ppBound int, ppWindow time.Duration, fsBound int) {
	var minFlap, grayDur, lastAt time.Duration
	started := map[int]time.Duration{}
	anyShape := false
	for _, ev := range s.Events {
		if ev.At > lastAt {
			lastAt = ev.At
		}
		switch ev.Op {
		case opShape:
			anyShape = true
			if t, ok := started[ev.Server]; ok {
				grayDur += ev.At - t
			}
			started[ev.Server] = ev.At
			shapes, err := faults.ParseProgram(ev.Shape)
			if err != nil {
				continue // Run validates upfront; unreachable there
			}
			for _, sh := range shapes {
				if sh.Kind == faults.Flap && (minFlap == 0 || sh.Period < minFlap) {
					minFlap = sh.Period
				}
			}
		case opClear:
			if t, ok := started[ev.Server]; ok {
				grayDur += ev.At - t
				delete(started, ev.Server)
			}
		}
	}
	if !anyShape {
		return
	}
	// Programs never cleared stay live until Run stops them at the settle
	// boundary.
	for _, t := range started {
		grayDur += lastAt + settleBound(opts.GCS) - t
	}
	ppWindow = 10 * time.Second
	// Per window, a correct cluster re-claims a group at most ~twice per
	// flap cycle (loss and reclamation) plus up to two transitions per
	// non-shape event; real ping-pong livelock oscillates per token rotation
	// and blows through any such bound.
	cycles := 0
	if minFlap > 0 {
		cycles = int(ppWindow/minFlap) + 1
	}
	ppBound = 8 + 2*len(s.Events) + 4*cycles
	// A lossy-but-alive or stalled member can legitimately be suspected
	// about once per fault-detection timeout of impaired time; allow a 3x
	// margin before calling the detector defective.
	fsBound = 3 + 3*(int(grayDur/opts.GCS.FaultDetectTimeout)+1)
	return
}
