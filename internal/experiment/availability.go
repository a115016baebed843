package experiment

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"time"

	"wackamole"
	"wackamole/internal/check"
	"wackamole/internal/experiment/runner"
	"wackamole/internal/flow"
	"wackamole/internal/gcs"
	"wackamole/internal/health"
	"wackamole/internal/invariant"
	"wackamole/internal/load"
	"wackamole/internal/metrics"
	"wackamole/internal/netsim"
	"wackamole/internal/placement"
	"wackamole/internal/rip"
)

// availability.go is the request-level availability experiment: where
// figure5.go measures a fault through a single 10ms probe, this experiment
// drives a whole client population over flow connections and reports what
// that population experiences across the fault — goodput and error-rate
// timeline, per-class request counts, latency before/during/after the
// fail-over, and the number of established connections lost at takeover
// (the paper's §2/§6 connection-loss claim, observed rather than asserted).
// `wacksim -experiment availability` is its command-line front end.

// FlowPort is the connection-oriented service port every cluster server
// answers on (distinct from ServicePort, the probe's datagram echo).
const FlowPort = 8090

// LoadClientPort is the workload engine's client-side UDP port (distinct
// from clientPort, the probe client's).
const LoadClientPort = 9100

// The AvailabilityConfig.Fault presets the experiment's code names.
const (
	FaultNIC     = "nic"
	faultCrash   = "crash"
	faultRolling = "rolling"
)

// rollingGap is the settle period after each drain and each rejoin of the
// rolling preset. Rolling trials shorten the engines' balance timeout to
// one second so a rejoined node is re-admitted within the gap.
const rollingGap = 2 * time.Second

// Topology selects the application scenario the workload runs against.
type Topology string

// The two application scenarios of the paper.
const (
	// topologyWeb is the Figure 3 web cluster: the workload targets a
	// virtual address that fails over between servers.
	topologyWeb Topology = "web"
	// topologyRouter is the Figure 4 virtual router: the workload targets a
	// stationary web server reached through a fail-over router pair.
	topologyRouter Topology = "router"
)

// ParseTopology converts a CLI spelling into a Topology.
func ParseTopology(s string) (Topology, error) {
	switch Topology(s) {
	case topologyWeb, topologyRouter:
		return Topology(s), nil
	default:
		return "", fmt.Errorf("experiment: unknown topology %q (want web or router)", s)
	}
}

// AvailabilityConfig parameterizes one availability trial.
type AvailabilityConfig struct {
	// Topology selects the scenario (default web).
	Topology Topology
	// Servers is the web-cluster size (default 4; the router topology is
	// fixed at two fail-over routers).
	Servers int
	// Clients, Mode, RPS and ThinkTime forward to the workload engine.
	Clients   int
	Mode      load.Mode
	RPS       float64
	ThinkTime time.Duration
	// Fault names the injected fault (default nic): a check.Preset played
	// from the fault instant against the target's owner. rolling reports
	// its disruption per phase (AvailabilityResult.Phases); the router
	// topology supports nic and crash.
	Fault string
	// Shape overrides the fault program a gray fault applies
	// (internal/faults spec syntax; "" means the preset's default).
	Shape string
	// GrayWindow is how long a gray fault stays applied before it is
	// cleared and the cluster re-converges (default: half of PostFault). A
	// program still live when the trial ends is stopped before the settled
	// state is probed. Ignored for the other faults.
	GrayWindow time.Duration
	// Placement names the VIP placement policy every server runs
	// (placement.Names(); "" means least-loaded, the paper's rule). The
	// rolling fault compares policies with it; it applies to every web
	// trial.
	Placement string
	// GCS configures the group-communication timeouts (zero: tuned).
	GCS gcs.Config
	// Warmup is the traffic-settling period after cluster formation and
	// before measurement starts (default 2s).
	Warmup time.Duration
	// PreFault is the measured fault-free window (default 4s); the post-
	// recovery goodput window has the same width.
	PreFault time.Duration
	// PostFault is how long the trial runs after the fault (default: the
	// fail-over bound plus a PreFault-wide recovery window).
	PostFault time.Duration
	// Trace captures a structured event stream per trial.
	Trace bool
	// Invariants arms an always-on invariant.Monitor on every trial's
	// nodes: the five model-checker oracles watch the trial's view,
	// delivery and ownership streams, and the settled-state properties are
	// probed after the measured window closes. Monitoring is
	// observation-only — a violation is recorded on the trial's Sample and
	// AvailabilityResult without perturbing the measured value.
	Invariants bool
	// Metrics receives the flow and load instrument families from every
	// trial (shared across trials; the registry serializes access). Nil
	// disables. With Invariants set it also receives the invariant_*
	// families.
	Metrics *metrics.Registry
	// Telemetry arms the observe-only health monitor on every server, with
	// the trial's registry and tracer: each daemon evaluates it on its scan
	// tick, every half heartbeat interval. The observed bench workload arms
	// it to price the plane. Web topology only (the router scenario builds
	// its servers without a wackamole.Cluster).
	Telemetry bool
}

func (c AvailabilityConfig) withDefaults() AvailabilityConfig {
	if c.Topology == "" {
		c.Topology = topologyWeb
	}
	if c.Servers <= 0 {
		c.Servers = 4
	}
	if c.Clients <= 0 {
		c.Clients = 200
	}
	if c.Mode == 0 {
		c.Mode = load.Closed
	}
	if c.Fault == "" {
		c.Fault = FaultNIC
	}
	if c.GCS == (gcs.Config{}) {
		c.GCS = gcs.TunedConfig()
	}
	if c.Warmup <= 0 {
		c.Warmup = 2 * time.Second
	}
	if c.PreFault <= 0 {
		c.PreFault = 4 * time.Second
	}
	if c.PostFault <= 0 {
		c.PostFault = 4*(c.GCS.FaultDetectTimeout+c.GCS.DiscoveryTimeout) + c.PreFault + time.Second
	}
	if c.GrayWindow <= 0 {
		c.GrayWindow = c.PostFault / 2
	}
	return c
}

// label names the configuration the way sweep points and NDJSON rows do.
func (c AvailabilityConfig) label() string {
	c = c.withDefaults()
	l := fmt.Sprintf("%s/%s/%s/c=%d", c.Topology, c.Mode, c.Fault, c.Clients)
	if c.GCS.Detector != gcs.DetectorFixed {
		l += "/det=" + c.GCS.Detector.String()
	}
	if c.Placement != "" {
		l += "/p=" + c.Placement
	}
	return l
}

// LatencyWindow summarizes client-observed request latency over one phase
// of the trial. Quantiles cover responses (ok and stale); Completions
// counts every request that terminated in the window.
type LatencyWindow struct {
	Completions uint64
	OK          uint64
	P50         time.Duration
	P99         time.Duration
	Max         time.Duration
}

// AvailabilityResult is the rich per-trial outcome backing one sample.
type AvailabilityResult struct {
	Seed int64
	// Interruption is the longest gap between consecutive ok completions —
	// the request-level service interruption (the trial's sample value).
	Interruption time.Duration
	// Stats is the engine's full counter snapshot for the measured window.
	Stats load.Stats
	// FaultAt is the instant the fault was injected.
	FaultAt time.Time
	// Before, During and After summarize latency in the three phases
	// [epoch, fault), [fault, recovery) and [recovery, end), where recovery
	// is the first ok completion after the interruption.
	Before, During, After LatencyWindow
	// GoodputPre and GoodputPost are ok completions per second in the
	// fault-free window and in an equally wide window at the end of the
	// trial. Recovery compares the two windows' goodput normalized by
	// offered load (ok per completed request), so Poisson arrival-sampling
	// noise between the windows does not masquerade as loss — any real
	// degradation (timeouts, resets, stale responses) still depresses it.
	GoodputPre  float64
	GoodputPost float64
	Recovery    float64
	// ByServer counts responses by responding server, showing the takeover
	// shifting traffic.
	ByServer map[string]uint64
	// Violation is the trial's Sample.Violation: the first invariant
	// violation its monitor observed (nil when monitoring was off or every
	// oracle held).
	Violation *invariant.Violation
	// DetectionLatency is how long after the fault any surviving daemon
	// first declared the victim failed (0 when no detection was observed —
	// e.g. a graceful leave, or a gray shape mild enough to ride out).
	DetectionLatency time.Duration
	// DetectionVia attributes that first detection: "phi" or "fixed".
	DetectionVia string
	// FalseSuspicions counts detections of peers other than the victim
	// (plus any pre-fault detection): declarations of servers that were
	// healthy by construction.
	FalseSuspicions int
	// Phases is the per-server disruption breakdown of a rolling schedule
	// (empty for every other fault).
	Phases []RollingPhase
	// Moves counts VIP relocations across the whole cluster from the fault
	// (or the start of the rolling schedule) to the end of the trial — the
	// churn side of the churn-vs-goodput trade the placement policy
	// controls. Zero for the router topology, which has no placement engine.
	Moves uint64
}

// RollingPhase is one server's restart window within a rolling-upgrade
// schedule: drain, rollingGap, rejoin, rollingGap.
type RollingPhase struct {
	// Server is the restarted server's index.
	Server int
	// Start and End bracket the phase ([Start, End); the last phase ends at
	// the trial's last completion).
	Start, End time.Time
	// MaxOKGap is the longest interval without an ok completion inside the
	// phase, edges included — a phase with no service at all reports its
	// full width.
	MaxOKGap time.Duration
	// OK counts the ok completions in the phase.
	OK uint64
}

// AvailabilityTrial runs one seeded trial and returns the runner sample
// (value = request-level interruption) plus the rich per-trial result.
func AvailabilityTrial(seed int64, cfg AvailabilityConfig) (runner.Sample, *AvailabilityResult, error) {
	cfg = cfg.withDefaults()
	switch cfg.Topology {
	case topologyWeb:
		return availabilityWebTrial(seed, cfg)
	case topologyRouter:
		if cfg.Telemetry {
			return runner.Sample{}, nil, fmt.Errorf("experiment: health monitors (Telemetry) require the web topology")
		}
		if cfg.Fault == faultRolling {
			return runner.Sample{}, nil, fmt.Errorf("experiment: the rolling fault requires the web topology")
		}
		if cfg.Placement != "" {
			return runner.Sample{}, nil, fmt.Errorf("experiment: placement selection requires the web topology")
		}
		return availabilityRouterTrial(seed, cfg)
	default:
		return runner.Sample{}, nil, fmt.Errorf("experiment: unknown topology %q", cfg.Topology)
	}
}

func availabilityWebTrial(seed int64, cfg AvailabilityConfig) (runner.Sample, *AvailabilityResult, error) {
	p := armPlanes(cfg.Trace, cfg.Invariants, availabilityMonitor(seed, cfg))
	rolling := cfg.Fault == faultRolling
	mods := []func(*wackamole.ClusterOptions){p.cluster, func(o *wackamole.ClusterOptions) {
		o.Placement = cfg.Placement
		if rolling {
			// A rejoined node is only handed load at the next balance; a
			// one-second timeout keeps re-admission inside rollingGap.
			o.BalanceTimeout = time.Second
		}
	}}
	if rolling && cfg.Servers < 2 {
		return runner.Sample{}, nil, fmt.Errorf("experiment: the rolling fault needs at least 2 servers")
	}
	// Detection accounting: every daemon reports who it declares failed and
	// through which mechanism. Before the fault there is no victim, so any
	// detection is a false suspicion; afterwards, only detections of the
	// victim are genuine. The simulation is single-threaded, so the plain
	// captured variables are race-free within the trial.
	var simNow func() time.Time
	victimID := ""
	var firstDetect time.Time
	detectVia := ""
	falseSuspects := 0
	mods = append(mods, func(o *wackamole.ClusterOptions) {
		o.OnNode = func(i int, n *wackamole.Node) {
			if cfg.Telemetry {
				n.SetHealth(health.NewMonitor(health.Options{
					Node: string(n.Daemon().ID()), Metrics: n.Metrics(), Tracer: n.Tracer(),
				}))
			}
			n.Daemon().SetDetectionHook(func(peer, detector string) {
				if victimID == "" || peer != victimID {
					falseSuspects++
					return
				}
				if firstDetect.IsZero() && simNow != nil {
					firstDetect = simNow()
					detectVia = detector
				}
			})
		}
	})
	wc, err := NewWebCluster(seed, cfg.Servers, cfg.GCS, mods...)
	if err != nil {
		return runner.Sample{}, nil, err
	}
	simNow = wc.Sim.Now
	p.setClock(wc.Sim)
	hosts := make([]*netsim.Host, len(wc.Servers))
	for i, srv := range wc.Servers {
		hosts[i] = srv.Host
	}
	engine, err := newTraffic(cfg, wc.ClientHost, wc.Target, hosts...)
	if err != nil {
		return runner.Sample{}, nil, err
	}

	// The rolling preset occupies two gaps per server before the PostFault
	// window starts. The completion log is sized for the measured window
	// before the warm-up, which fills and leaves it.
	post, owner, hold := cfg.PostFault, 0, cfg.GrayWindow
	if rolling {
		post += 2 * rollingGap * time.Duration(cfg.Servers)
		hold = rollingGap
	}
	engine.Reserve(cfg.PreFault + post)

	// Settle the cluster, warm the traffic path, then start the measured
	// window at a seed-derived offset within the heartbeat interval so the
	// fault phase is uniformly distributed (as in WebCluster.WarmUp).
	wc.Settle()
	engine.Start()
	wc.RunFor(cfg.Warmup)
	wc.RunFor(time.Duration(wc.Sim.Rand().Int63n(int64(cfg.GCS.HeartbeatInterval))))
	engine.ResetStats()
	wc.RunFor(cfg.PreFault)

	faultAt := wc.Sim.Now()
	movesBase := clusterVIPMoves(wc)
	if !rolling {
		var holders int
		if owner, holders = wc.Owner(wc.Target); holders != 1 {
			return runner.Sample{}, nil, fmt.Errorf("experiment: %d holders of the target before fault", holders)
		}
		victimID = string(wc.Servers[owner].Node.Daemon().ID())
	}
	events, err := check.Preset(cfg.Fault, owner, cfg.Servers, cfg.Shape, hold)
	if err != nil {
		return runner.Sample{}, nil, err
	}
	var phases []RollingPhase
	if rolling {
		// The churn oracle arms here — after formation and warmup, whose
		// incremental views legitimately exceed a single-change bound —
		// with the configured policy's own guarantee for one membership
		// change. Under least-loaded that bound is the per-view ceiling;
		// under minimal it has teeth: ⌈V/(N−1)⌉.
		if p.mon != nil {
			placer, perr := placement.New(cfg.Placement)
			if perr != nil {
				return runner.Sample{}, nil, perr
			}
			p.mon.ArmChurn(placer.MoveBound(len(wc.Groups), cfg.Servers-1))
		}
		// A phase starts at each server's drain, the first of its events.
		for i := 0; i < len(events); i += 2 {
			phases = append(phases, RollingPhase{Server: events[i].Server, Start: faultAt.Add(events[i].At)})
		}
	}
	check.NewExecutor(wc.Sim, cfg.GCS, wc.Segment, wc.Servers).Play(events, faultAt, faultAt.Add(post), nil)

	res := summarizeTrial(seed, engine, faultAt)
	res.Moves = clusterVIPMoves(wc) - movesBase
	if len(phases) > 0 {
		finalizePhases(phases, engine)
		res.Phases = phases
	}
	if !firstDetect.IsZero() {
		res.DetectionLatency = firstDetect.Sub(faultAt)
		res.DetectionVia = detectVia
	}
	res.FalseSuspicions = falseSuspects
	engine.Stop()
	sample := runner.Sample{Value: res.Interruption, Metrics: clusterMetrics(wc.Cluster)}
	p.attach(&sample, res.Stats.GapStart, res.Stats.GapEnd, wc.Target.String())
	// The measured window is closed; the settled-state probing (and its
	// possible one-second retry) is monitoring-only.
	sample.Violation = p.verify(wc.Cluster, 0)
	res.Violation = sample.Violation
	return sample, res, nil
}

// newTraffic puts the flow service on every serving host and builds the
// client population that will drive target from the client host.
func newTraffic(cfg AvailabilityConfig, client *netsim.Host, target netip.Addr, servers ...*netsim.Host) (*load.Engine, error) {
	for _, h := range servers {
		if _, err := flow.NewServer(h, FlowPort, flow.ServerConfig{Metrics: cfg.Metrics}); err != nil {
			return nil, err
		}
	}
	return load.New(client, load.Config{
		Clients:   cfg.Clients,
		Mode:      cfg.Mode,
		RPS:       cfg.RPS,
		ThinkTime: cfg.ThinkTime,
		Target:    netip.AddrPortFrom(target, FlowPort),
		LocalPort: LoadClientPort,
		Metrics:   cfg.Metrics,
	})
}

// clusterVIPMoves sums every server engine's placement-move counter; the
// difference across a window is the cluster's total VIP churn in it.
func clusterVIPMoves(wc *WebCluster) uint64 {
	var n uint64
	for i := range wc.Servers {
		n += wc.Servers[i].Node.Engine().Stats().Moves
	}
	return n
}

// finalizePhases closes each phase at the next one's start (the last at the
// final completion) and fills the per-phase disruption summary. Must run
// before engine.Stop (live completion slice).
func finalizePhases(phases []RollingPhase, engine *load.Engine) {
	end := engine.Epoch()
	if cs := engine.Completions(); len(cs) > 0 {
		end = cs[len(cs)-1].At.Add(time.Nanosecond)
	}
	for i := range phases {
		if i+1 < len(phases) {
			phases[i].End = phases[i+1].Start
		} else {
			phases[i].End = end
		}
		phases[i].MaxOKGap, phases[i].OK = phaseWindow(engine.Completions(), phases[i].Start, phases[i].End)
	}
}

// phaseWindow computes the longest interval without an ok completion inside
// [from, to) — edge gaps included, so a phase with no ok completions at all
// reports its full width — plus the phase's ok count.
func phaseWindow(completions []load.Completion, from, to time.Time) (gap time.Duration, ok uint64) {
	prev := from
	for _, c := range within(completions, from, to) {
		if c.Class == load.ClassOK {
			ok++
			if d := c.At.Sub(prev); d > gap {
				gap = d
			}
			prev = c.At
		}
	}
	if d := to.Sub(prev); d > gap {
		gap = d
	}
	return gap, ok
}

// availabilityMonitor configures the per-trial online monitor (zero when
// monitoring is off).
func availabilityMonitor(seed int64, cfg AvailabilityConfig) invariant.Config {
	if !cfg.Invariants {
		return invariant.Config{}
	}
	nodes := cfg.Servers
	if cfg.Topology == topologyRouter {
		nodes = 2
	}
	return invariant.Config{
		Nodes:   nodes,
		Metrics: cfg.Metrics,
		// The name of the experiment's former binary, kept so that trace
		// streams stay byte-identical.
		Name: fmt.Sprintf("wackload-seed%d", seed),
	}
}

func availabilityRouterTrial(seed int64, cfg AvailabilityConfig) (runner.Sample, *AvailabilityResult, error) {
	if cfg.Fault != FaultNIC && cfg.Fault != faultCrash {
		return runner.Sample{}, nil, fmt.Errorf("experiment: the router topology supports only nic and crash faults, not %q", cfg.Fault)
	}
	ripCfg := rip.Config{AdvertisePeriod: rip.DefaultAdvertisePeriod}
	p := armPlanes(cfg.Trace, cfg.Invariants, availabilityMonitor(seed, cfg))
	sc, err := newVirtualRouterScenario(seed, RouterModeAdvertiseAll, cfg.GCS, ripCfg,
		func(i int, n *wackamole.Node) { p.mon.Attach(i, n) })
	if err != nil {
		return runner.Sample{}, nil, err
	}
	p.setClock(sc.sim)
	if p.tr != nil {
		sc.net.SetEventTracer(p.tr)
	}
	engine, err := newTraffic(cfg, sc.clientHost, netip.MustParseAddr("10.1.0.10"), sc.server)
	if err != nil {
		return runner.Sample{}, nil, err
	}

	// Let memberships form, the active router join the routing protocol and
	// the upstream's first periodic advertisement teach it the client
	// network (the reply path needs it), then warm the traffic path.
	sc.sim.RunFor(2*cfg.GCS.DiscoveryTimeout + 2*time.Second)
	sc.sim.RunFor(ripCfg.AdvertisePeriod + 5*time.Second)
	engine.Reserve(cfg.PreFault + cfg.PostFault)
	engine.Start()
	sc.sim.RunFor(cfg.Warmup)
	sc.sim.RunFor(time.Duration(sc.sim.Rand().Int63n(int64(cfg.GCS.HeartbeatInterval))))
	engine.ResetStats()
	sc.sim.RunFor(cfg.PreFault)

	active, err := sc.activeRouter()
	if err != nil {
		return runner.Sample{}, nil, err
	}
	events, err := check.Preset(cfg.Fault, active, len(sc.routers), "", 0)
	if err != nil {
		return runner.Sample{}, nil, err
	}
	faultAt := sc.sim.Now()
	check.NewExecutor(sc.sim, cfg.GCS, sc.webNet, sc.routers).Play(events, faultAt, faultAt.Add(cfg.PostFault), nil)

	res := summarizeTrial(seed, engine, faultAt)
	engine.Stop()
	sample := runner.Sample{Value: res.Interruption, Metrics: sc.metrics()}
	p.attach(&sample, res.Stats.GapStart, res.Stats.GapEnd, extVIP.String())
	// The router topology has no wackamole.Cluster to probe at rest; the
	// online oracles (view order, delivery order, foreign claim) still
	// watched the whole trial.
	sample.Violation = p.verify(nil, 0)
	res.Violation = sample.Violation
	return sample, res, nil
}

// summarizeTrial reduces the engine's measured window into the rich
// per-trial result. Must run before engine.Stop (live slices).
func summarizeTrial(seed int64, engine *load.Engine, faultAt time.Time) *AvailabilityResult {
	st := engine.Stats()
	end := engine.Epoch()
	if n := len(engine.Completions()); n > 0 {
		end = engine.Completions()[n-1].At
	}
	// Recovery instant: the first ok completion after the interruption. If
	// the gap never spanned the fault (e.g. graceful leave too short to
	// notice), the during-window is empty.
	recoveredAt := faultAt
	if st.GapEnd.After(faultAt) {
		recoveredAt = st.GapEnd
	}
	res := &AvailabilityResult{
		Seed:         seed,
		Interruption: st.MaxOKGap,
		Stats:        st,
		FaultAt:      faultAt,
		ByServer:     map[string]uint64{},
	}
	for k, v := range engine.ByServer() {
		res.ByServer[k] = v
	}
	before := within(engine.Completions(), engine.Epoch(), faultAt)
	during := within(engine.Completions(), faultAt, recoveredAt)
	after := within(engine.Completions(), recoveredAt, end.Add(time.Nanosecond))
	// Selection scratch, shared by the three windows: none holds more round
	// trips than the largest window has completions.
	rtts := make([]time.Duration, 0, max(len(before), len(during), len(after)))
	res.Before, rtts = windowOf(before, rtts)
	res.During, rtts = windowOf(during, rtts)
	res.After, _ = windowOf(after, rtts)

	// Goodput: ok completions per second in the fault-free window, and in
	// an equally wide window ending at the last completion.
	preW := faultAt.Sub(engine.Epoch())
	if preW > 0 {
		res.GoodputPre = float64(res.Before.OK) / preW.Seconds()
	}
	postStart := end.Add(-preW)
	if postStart.Before(recoveredAt) {
		postStart = recoveredAt
	}
	var post []load.Completion
	var postOK uint64
	if postW := end.Sub(postStart); postW > 0 {
		post = within(engine.Completions(), postStart, end.Add(time.Nanosecond))
		postOK = countOK(post)
		res.GoodputPost = float64(postOK) / postW.Seconds()
	}
	if res.Before.Completions > 0 && len(post) > 0 {
		preFrac := float64(res.Before.OK) / float64(res.Before.Completions)
		postFrac := float64(postOK) / float64(len(post))
		if preFrac > 0 {
			res.Recovery = postFrac / preFrac
		}
	}
	return res
}

// within returns the run of completions with from <= At < to. The log is in
// completion order, so At never decreases along it and the run's two ends
// are binary searches.
func within(completions []load.Completion, from, to time.Time) []load.Completion {
	lo := sort.Search(len(completions), func(i int) bool { return !completions[i].At.Before(from) })
	n := sort.Search(len(completions)-lo, func(i int) bool { return !completions[lo+i].At.Before(to) })
	return completions[lo : lo+n]
}

// countOK counts the ok completions in cs.
func countOK(cs []load.Completion) (ok uint64) {
	for _, c := range cs {
		if c.Class == load.ClassOK {
			ok++
		}
	}
	return ok
}

// windowOf summarizes one window's completions. It selects the window's
// round-trip quantiles in rtts, which it overwrites and hands back grown.
func windowOf(completions []load.Completion, rtts []time.Duration) (LatencyWindow, []time.Duration) {
	w := LatencyWindow{Completions: uint64(len(completions))}
	rtts = rtts[:0]
	for _, c := range completions {
		if c.Class == load.ClassOK {
			w.OK++
		}
		if c.Class == load.ClassOK || c.Class == load.ClassStale {
			rtts = append(rtts, c.RTT)
			if c.RTT > w.Max {
				w.Max = c.RTT
			}
		}
	}
	if len(rtts) > 0 {
		w.P50 = metrics.Select(rtts, 50)
		w.P99 = metrics.Select(rtts, 99)
	}
	return w, rtts
}

// AvailabilityExperiment is the request-level availability experiment of one
// configuration, its single grid point. Each sample carries its rich
// per-trial outcome; the aggregate row, published as "availability/<label>",
// is followed by one row per trial.
func AvailabilityExperiment(cfg AvailabilityConfig) Experiment {
	cfg = cfg.withDefaults()
	return Experiment{
		Name:  "availability",
		Title: "## Request-level availability across a fault",
		Unit:  "interruption",
		Trace: true, Invariants: true,
		Points: func(g Grid) []Point {
			cfg := cfg
			cfg.Trace = cfg.Trace || g.trace
			cfg.Invariants = cfg.Invariants || g.invariants
			return []Point{{
				Label: cfg.label(),
				Run: func(seed int64) (runner.Sample, error) {
					sample, res, err := AvailabilityTrial(seed, cfg)
					sample.Detail = res
					return sample, err
				},
				Extra: availabilityExtra,
			}}
		},
		Render: func(rows []Row) string { return strings.TrimSuffix(renderAvailability(rows[0]), "\n") },
		Expand: func(r Row) []Row {
			r.Point = "availability/" + r.Point
			return availabilityRows(r)
		},
	}
}

// availabilityResults returns the rich per-trial outcomes of an availability
// row, aligned with its Samples (seed order).
func availabilityResults(row Row) []*AvailabilityResult {
	out := make([]*AvailabilityResult, len(row.Samples))
	for i, s := range row.Samples {
		out[i] = s.Detail.(*AvailabilityResult)
	}
	return out
}

// renderAvailability formats the per-trial outcomes plus the aggregate.
func renderAvailability(row Row) string {
	results := availabilityResults(row)
	header := []string{"seed", "interruption", "ok", "reset", "timeout", "stale",
		"conns lost", "goodput pre", "goodput post", "recovery", "p99 before", "p99 after",
		"detect", "false susp"}
	var cells [][]string
	for _, r := range results {
		detect := "—"
		if r.DetectionLatency > 0 {
			detect = fmt.Sprintf("%s (%s)", seconds(r.DetectionLatency), r.DetectionVia)
		}
		cells = append(cells, []string{
			fmt.Sprintf("%d", r.Seed), seconds(r.Interruption),
			fmt.Sprintf("%d", r.Stats.Requests[load.ClassOK]),
			fmt.Sprintf("%d", r.Stats.Requests[load.ClassReset]),
			fmt.Sprintf("%d", r.Stats.Requests[load.ClassTimeout]),
			fmt.Sprintf("%d", r.Stats.Requests[load.ClassStale]),
			fmt.Sprintf("%d", r.Stats.ConnsLost),
			fmt.Sprintf("%.1f/s", r.GoodputPre),
			fmt.Sprintf("%.1f/s", r.GoodputPost),
			fmt.Sprintf("%.3f", r.Recovery),
			seconds(r.Before.P99), seconds(r.After.P99),
			detect, fmt.Sprintf("%d", r.FalseSuspicions),
		})
	}
	out := fmt.Sprintf("point: %s (trials %d, errors %d, mean interruption %s)\n\n%s",
		row.Point, row.Stat.N, row.Errors, seconds(row.Stat.Mean), Table(header, cells))
	// Rolling trials append the per-phase disruption breakdown.
	if len(results) > 0 && len(results[0].Phases) > 0 {
		out += "\nrolling phases (max ok-gap per restarted server):\n"
		for _, r := range results {
			var total time.Duration
			line := fmt.Sprintf("  seed %d:", r.Seed)
			for _, ph := range r.Phases {
				line += fmt.Sprintf(" s%d=%s", ph.Server, seconds(ph.MaxOKGap))
				total += ph.MaxOKGap
			}
			out += line + fmt.Sprintf("  (cumulative %s)\n", seconds(total))
		}
	}
	return out
}

// availabilityExtra computes the aggregate row's scalars: per-class request
// totals and the trial means of the per-trial detail.
func availabilityExtra(row Row) map[string]float64 {
	results := availabilityResults(row)
	extra := map[string]float64{}
	for _, r := range results {
		for c := load.Class(0); c < load.NumClasses; c++ {
			extra[c.String()] += float64(r.Stats.Requests[c])
		}
		extra["conns_lost"] += float64(r.Stats.ConnsLost)
		extra["vip_moves"] += float64(r.Moves)
		extra["recovery"] += r.Recovery / float64(len(results))
		extra["detect_latency_s"] += r.DetectionLatency.Seconds() / float64(len(results))
		extra["false_suspicions"] += float64(r.FalseSuspicions)
		// Rolling schedules: the aggregate reports the max ok-gap of every
		// phase (mean across trials) plus the cumulative disruption — the
		// sum of per-phase gaps, the number the placement policies compete
		// on.
		for i, ph := range r.Phases {
			extra[fmt.Sprintf("phase%d_max_gap_s", i)] += ph.MaxOKGap.Seconds() / float64(len(results))
			extra["disruption_total_s"] += ph.MaxOKGap.Seconds() / float64(len(results))
		}
	}
	return extra
}

// availabilityRows expands the row into the experiment's records: the
// aggregate row followed by one row per trial carrying its full per-class
// and latency detail in Extra.
func availabilityRows(row Row) []Row {
	out := []Row{row}
	for i, r := range availabilityResults(row) {
		extra := map[string]float64{
			"issued":           float64(r.Stats.Issued),
			"conns_lost":       float64(r.Stats.ConnsLost),
			"dials_ok":         float64(r.Stats.DialsOK),
			"dials_failed":     float64(r.Stats.DialsFailed),
			"goodput_pre_rps":  r.GoodputPre,
			"goodput_post_rps": r.GoodputPost,
			"vip_moves":        float64(r.Moves),
			"recovery":         r.Recovery,
			"detect_latency_s": r.DetectionLatency.Seconds(),
			"false_suspicions": float64(r.FalseSuspicions),
		}
		for name, w := range map[string]LatencyWindow{"before": r.Before, "during": r.During, "after": r.After} {
			extra[name+"_p50_s"] = w.P50.Seconds()
			extra[name+"_p99_s"] = w.P99.Seconds()
			extra[name+"_max_s"] = w.Max.Seconds()
			extra[name+"_requests"] = float64(w.Completions)
			extra[name+"_ok"] = float64(w.OK)
		}
		for c := load.Class(0); c < load.NumClasses; c++ {
			extra[c.String()] = float64(r.Stats.Requests[c])
		}
		if len(r.Phases) > 0 {
			extra["rolling_phases"] = float64(len(r.Phases))
			var total float64
			for j, ph := range r.Phases {
				extra[fmt.Sprintf("phase%d_max_gap_s", j)] = ph.MaxOKGap.Seconds()
				extra[fmt.Sprintf("phase%d_ok", j)] = float64(ph.OK)
				total += ph.MaxOKGap.Seconds()
			}
			extra["disruption_total_s"] = total
		}
		out = append(out, Row{
			Experiment: row.Experiment,
			Point:      fmt.Sprintf("%s/seed=%d", row.Point, r.Seed),
			Unit:       row.Unit,
			Stat:       summarize([]time.Duration{r.Interruption}),
			Metrics:    row.Samples[i].Metrics,
			Extra:      extra,
		})
	}
	return out
}
