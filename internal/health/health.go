// Package health is the live cluster health plane: per-peer
// detection-quality instrumentation (last-heard ages, inter-arrival
// statistics, observe-only phi-accrual suspicion, served on /metrics as
// health_phi). gcs.Daemon feeds a Monitor every heartbeat and token and
// evaluates it on its own scan tick, so a threshold crossing is counted and
// traced whether or not anybody asks; status queries and /metrics scrapes
// read it on demand as well.
//
// The phi-accrual estimator (Hayashibara et al., after the Cassandra GMS
// lineage) is strictly observational in this layer: it runs beside the
// paper's fixed T/H timeouts (§3, Table 1) and records how much earlier an
// adaptive detector would have suspected a dead peer, without changing
// detection behavior. ROADMAP item 4 can later flip it from shadow to
// authoritative.
//
// Like the tracer and the metrics registry, a nil *Monitor is a valid
// disabled instrument: every method is a cheap no-op.
package health

import (
	"math"
	"sync"
	"time"

	"wackamole/internal/metrics"
	"wackamole/internal/obs"
)

// Threshold is the phi level at which a peer becomes suspected, and at
// which gcs's phi detector declares it faulty.
const Threshold = 8.0

const (
	// window is the number of recent inter-arrival samples kept per peer.
	window = 64
	// minSamples is the number of inter-arrival samples required before phi
	// is computed at all.
	minSamples = 3
	// minStdDev floors the estimator's standard deviation so that perfectly
	// regular arrivals (the simulator's) don't make phi explode on the first
	// microsecond of jitter.
	minStdDev = 10 * time.Millisecond

	// maxPhi caps the suspicion level once the tail probability underflows
	// float64 (erfc ≈ 0); it also bounds the milli-phi gauge.
	maxPhi = 300.0
)

// Options configures a Monitor.
type Options struct {
	// Node names the observer in metrics labels and trace events.
	Node string
	// Metrics receives the health_* families; nil disables metric export.
	Metrics *metrics.Registry
	// Tracer receives phi-suspect/clear events; nil disables tracing.
	Tracer *obs.Tracer
}

// PeerHealth is one peer's row in a Monitor snapshot.
type PeerHealth struct {
	// Peer is the observed daemon's identity ("ip:port").
	Peer string
	// Phi is the current suspicion level (0 when under minSamples).
	Phi float64
	// LastHeard is the age of the most recent signal from the peer (zero if
	// never heard).
	LastHeard time.Duration
	// Samples is the number of inter-arrival samples in the window.
	Samples int
}

type peerState struct {
	samples   []int64 // ring buffer of inter-arrival nanoseconds
	n, idx    int
	lastHeard time.Time
	suspected bool
	// suspectedAt is the instant phi first crossed the threshold for the
	// current suspicion episode; Detected turns it into a lead time.
	suspectedAt time.Time

	gInter   *metrics.Gauge
	cSuspect *metrics.Counter
}

// Monitor tracks detection quality for every peer of one observer. All
// methods are safe for concurrent use and safe on a nil receiver.
type Monitor struct {
	mu        sync.Mutex
	node      string
	minMeanNs float64
	now       func() time.Time // the instant a scrape evaluates health_phi at
	tracer    *obs.Tracer
	reg       *metrics.Registry
	peers     map[string]*peerState
	order     []string // sorted peer names for deterministic snapshots

	cObserve *metrics.Counter
	hLead    *metrics.Histogram
	cMissed  *metrics.Counter
}

// NewMonitor returns a Monitor with no peers; call SetPeers to populate it.
func NewMonitor(o Options) *Monitor {
	m := &Monitor{
		node:   o.Node,
		now:    time.Now,
		tracer: o.Tracer,
		reg:    o.Metrics,
		peers:  make(map[string]*peerState),
	}
	m.cObserve = o.Metrics.Counter("health_observations_total",
		"peer signals (heartbeats, tokens) observed by the health monitor",
		metrics.L("node", o.Node))
	m.hLead = o.Metrics.Histogram("health_detection_lead_seconds",
		"time by which shadow phi suspicion preceded the fixed T-timeout detection",
		metrics.L("node", o.Node))
	m.cMissed = o.Metrics.Counter("health_detections_unsuspected_total",
		"T-timeout detections that fired before shadow phi crossed its threshold",
		metrics.L("node", o.Node))
	return m
}

// SetMinMean floors the modeled mean inter-arrival time. A daemon observes
// both its guaranteed cadence (heartbeats) and opportunistic extras (token
// passes, often orders of magnitude faster); without a floor a
// token-dominated window models the peer as a kilohertz emitter and any
// token stall a few dozen milliseconds long crosses the threshold. Flooring
// the mean at the heartbeat interval keeps opportunistic signals sharpening
// recency (lastHeard) without tightening the model below the cadence the
// peer is actually obligated to meet. gcs.Daemon.SetHealth wires this to
// its configured heartbeat interval automatically.
func (m *Monitor) SetMinMean(d time.Duration) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.minMeanNs = float64(d.Nanoseconds())
	m.mu.Unlock()
}

// SetClock sets the clock a scrape of health_phi reads the current instant
// from (wall time until set). gcs.Daemon.SetHealth wires it to the daemon's
// own clock, so a simulated monitor is scraped at simulated time.
func (m *Monitor) SetClock(now func() time.Time) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.now = now
	m.mu.Unlock()
}

// SetPeers resets the monitor for a freshly installed membership: the peer
// set becomes exactly peers (the observer itself excluded by the caller),
// every window is cleared, and every peer counts as heard at now. A restart
// or any reconfiguration therefore never carries stale suspicion across
// generations — the Cassandra GMS "generation" reset. The membership's
// generation, the first argument, is not kept.
func (m *Monitor) SetPeers(_ uint64, peers []string, now time.Time) {
	if m == nil {
		return
	}
	// A new peer's series are registered before m.mu is taken: a scrape
	// evaluates health_phi under the registry's lock and then takes m.mu.
	// The installed map is never written once installed, so it is read
	// here without the lock.
	m.mu.Lock()
	old := m.peers
	m.mu.Unlock()
	next := make(map[string]*peerState, len(peers))
	for _, p := range peers {
		ps := old[p]
		if ps == nil {
			labels := []metrics.Label{metrics.L("node", m.node), metrics.L("peer", p)}
			ps = &peerState{
				samples: make([]int64, window),
				gInter: m.reg.Gauge("health_interarrival_ns",
					"most recent inter-arrival gap between signals from the peer", labels...),
				cSuspect: m.reg.Counter("health_suspicions_total",
					"shadow phi threshold crossings against the peer", labels...),
			}
			m.reg.GaugeFunc("health_phi",
				"observe-only phi-accrual suspicion level at scrape time, in milli-phi",
				m.phiView(p), labels...)
		}
		next[p] = ps
	}

	m.mu.Lock()
	m.peers = next
	m.order = m.order[:0]
	for _, p := range peers {
		// Reset regardless of whether the peer carries over: the new
		// configuration restarts its signal stream.
		ps := next[p]
		for i := range ps.samples {
			ps.samples[i] = 0
		}
		ps.n, ps.idx = 0, 0
		ps.lastHeard = now
		ps.suspected = false
		ps.suspectedAt = time.Time{}
		m.order = append(m.order, p)
	}
	sortStrings(m.order)
	m.mu.Unlock()
}

// phiView is peer's health_phi series: phi evaluated when the registry is
// read, 0 while the peer is outside the current membership.
func (m *Monitor) phiView(peer string) func() float64 {
	return func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		ps := m.peers[peer]
		if ps == nil {
			return 0
		}
		return float64(phiMilli(m.phiLocked(ps, m.now())))
	}
}

// Observe records a signal (heartbeat, token) from peer at now. It is the
// steady-state hot path and performs no allocation for known peers; unknown
// peers are ignored.
func (m *Monitor) Observe(peer string, now time.Time) {
	if m == nil {
		return
	}
	m.mu.Lock()
	ps := m.peers[peer]
	if ps == nil {
		m.mu.Unlock()
		return
	}
	if !ps.lastHeard.IsZero() {
		if d := now.Sub(ps.lastHeard); d > 0 {
			ns := int64(d)
			ps.samples[ps.idx] = ns
			ps.idx++
			if ps.idx == len(ps.samples) {
				ps.idx = 0
			}
			if ps.n < len(ps.samples) {
				ps.n++
			}
			ps.gInter.Set(ns)
		}
	}
	ps.lastHeard = now
	cleared := ps.suspected
	if cleared {
		ps.suspected = false
		ps.suspectedAt = time.Time{}
	}
	m.mu.Unlock()
	m.cObserve.Inc()
	if cleared && m.tracer.Enabled() {
		m.tracer.Emit(obs.Event{
			Source: obs.SourceHealth, Kind: obs.KindPhiClear,
			Node: m.node, Detail: peer,
		})
	}
}

// Phi evaluates peer at now and returns its suspicion level, 0 for unknown
// peers and under-sampled windows. An upward threshold crossing is counted
// (health_suspicions_total) and traced (phi-suspect). This is the daemon's
// periodic evaluation point, its scan tick, and it allocates nothing.
func (m *Monitor) Phi(peer string, now time.Time) float64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	ps := m.peers[peer]
	if ps == nil {
		m.mu.Unlock()
		return 0
	}
	phi, crossed := m.evaluateLocked(ps, now)
	m.mu.Unlock()
	if crossed {
		m.emitSuspect(peer)
	}
	return phi
}

// evaluateLocked computes ps's phi at now and, on an upward threshold
// crossing, marks and counts the suspicion; the caller traces it once the
// lock is released.
func (m *Monitor) evaluateLocked(ps *peerState, now time.Time) (phi float64, crossed bool) {
	phi = m.phiLocked(ps, now)
	if phi < Threshold || ps.suspected {
		return phi, false
	}
	ps.suspected = true
	ps.suspectedAt = now
	ps.cSuspect.Inc()
	return phi, true
}

// Snapshot evaluates every peer at now, as Phi does, and returns one row per
// peer, sorted by peer name. Status queries call it.
func (m *Monitor) Snapshot(now time.Time) []PeerHealth {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	out := make([]PeerHealth, 0, len(m.order))
	var crossed []string
	for _, name := range m.order {
		ps := m.peers[name]
		phi, cross := m.evaluateLocked(ps, now)
		if cross {
			crossed = append(crossed, name)
		}
		ph := PeerHealth{Peer: name, Phi: phi, Samples: ps.n}
		if !ps.lastHeard.IsZero() {
			ph.LastHeard = now.Sub(ps.lastHeard)
		}
		out = append(out, ph)
	}
	m.mu.Unlock()
	for _, name := range crossed {
		m.emitSuspect(name)
	}
	return out
}

// Detected tells the monitor that the fixed T-timeout detector declared peer
// dead at now. Call it before emitting the heartbeat-miss event so the
// phi-suspect trace event (if the crossing happens only now) HLC-orders
// before the miss. It records the shadow detector's lead time — how much
// earlier phi suspected the peer — or counts a miss if phi had not crossed.
func (m *Monitor) Detected(peer string, now time.Time) {
	if m == nil {
		return
	}
	m.mu.Lock()
	ps := m.peers[peer]
	if ps == nil {
		m.mu.Unlock()
		return
	}
	if ps.n < minSamples && !ps.suspected {
		// Under-sampled window: phi is undefined here, so the shadow
		// detector abstains — a miss counted against a detector that never
		// had data (transient boot-time rings) would be noise.
		m.mu.Unlock()
		return
	}
	_, crossedNow := m.evaluateLocked(ps, now)
	led := ps.suspected
	var lead time.Duration
	if led {
		lead = now.Sub(ps.suspectedAt)
	}
	m.mu.Unlock()
	if crossedNow {
		m.emitSuspect(peer)
	}
	if led {
		m.hLead.ObserveDuration(lead)
	} else {
		m.cMissed.Inc()
	}
}

func (m *Monitor) emitSuspect(peer string) {
	if m.tracer.Enabled() {
		m.tracer.Emit(obs.Event{
			Source: obs.SourceHealth, Kind: obs.KindPhiSuspect,
			Node: m.node, Detail: peer,
		})
	}
}

// phiLocked computes the phi-accrual suspicion level for ps at now.
//
// phi(t) = -log10(P(interval > t)) under a normal model of the window's
// inter-arrival distribution, with two production guards (the Akka/Cassandra
// refinements of the original paper): the mean is inflated by 50% as an
// acceptable-pause allowance, and the standard deviation is floored at
// max(mean/4, minStdDev) so regular traffic doesn't hair-trigger. With the
// tuned Table 1 heartbeat of 200ms this crosses the threshold 8
// around 580ms of silence — ahead of the 800ms T timeout — while a single
// lost heartbeat stays near phi ≈ 1.6.
func (m *Monitor) phiLocked(ps *peerState, now time.Time) float64 {
	if ps.n < minSamples || ps.lastHeard.IsZero() {
		return 0
	}
	elapsed := float64(now.Sub(ps.lastHeard))
	if elapsed <= 0 {
		return 0
	}
	var sum, sumSq float64
	for i := 0; i < ps.n; i++ {
		v := float64(ps.samples[i])
		sum += v
		sumSq += v * v
	}
	n := float64(ps.n)
	mean := sum / n
	variance := sumSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	// Model no faster than the guaranteed cadence (see SetMinMean).
	if mean < m.minMeanNs {
		mean = m.minMeanNs
	}
	std := math.Sqrt(variance)
	if floor := mean / 4; std < floor {
		std = floor
	}
	if std < float64(minStdDev) {
		std = float64(minStdDev)
	}
	z := (elapsed - mean*1.5) / (std * math.Sqrt2)
	p := 0.5 * math.Erfc(z)
	if p <= 1e-300 {
		return maxPhi
	}
	phi := -math.Log10(p)
	if phi < 0 {
		return 0
	}
	if phi > maxPhi {
		return maxPhi
	}
	return phi
}

// phiMilli converts a phi value to the clamped milli-phi fixed-point used on
// the wire and in the health_phi gauge.
func phiMilli(phi float64) uint32 {
	if phi <= 0 {
		return 0
	}
	if phi >= maxPhi {
		return uint32(maxPhi * 1000)
	}
	return uint32(phi * 1000)
}

// sortStrings is an allocation-free insertion sort; peer sets are small.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
