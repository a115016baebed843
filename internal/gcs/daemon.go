package gcs

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"wackamole/internal/env"
	"wackamole/internal/health"
	"wackamole/internal/metrics"
	"wackamole/internal/obs"
	"wackamole/internal/wire"
)

// daemonState is the daemon's membership-protocol state.
type daemonState uint8

const (
	// stGather: discovering the currently reachable daemons.
	stGather daemonState = iota + 1
	// stCommitWait: discovery closed, waiting for the coordinator's FORM.
	stCommitWait
	// stRecover: new membership formed, flushing old-ring messages to
	// preserve Virtual Synchrony.
	stRecover
	// stOperational: on an installed ring, token circulating.
	stOperational
)

// String names the state for logs and tests.
func (s daemonState) String() string {
	switch s {
	case stGather:
		return "gather"
	case stCommitWait:
		return "commit-wait"
	case stRecover:
		return "recover"
	case stOperational:
		return "operational"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// MembershipHandler observes daemon-level membership installations. The
// paper's Table 1 timings are measured at exactly this point: the moment the
// daemon installs a new configuration after fault detection and discovery.
type MembershipHandler func(ring RingID, members []DaemonID)

// DeliveryHandler observes Agreed delivery: it runs for every data message
// the moment the daemon hands it to the group layer, identified by the ring
// that ordered it, its sequence number on that ring, and its origin daemon.
// Both the operational delivery path and the reconfiguration recovery flush
// report here, so the handler sees the complete total order each member
// observed — which is exactly what a virtual-synchrony checker needs to
// compare members against each other.
type DeliveryHandler func(ring RingID, seq uint64, origin DaemonID)

// Daemon is one group-communication daemon. It must be driven entirely from
// its Env's callback loop; none of its methods are safe for concurrent use
// from other goroutines.
type Daemon struct {
	env env.Env
	cfg Config
	id  DaemonID
	// logging records whether NewDaemon was given a logger. Every Logf in
	// this package sits behind it: a variadic call boxes its arguments at the
	// call site even for a logger that discards them, and a reconfiguration
	// logs at every step.
	logging bool

	state  daemonState
	closed bool

	round          uint64 // membership-attempt counter, monotone
	installedRound uint64 // round of the currently installed ring
	maxEpoch       uint64 // highest ring epoch ever observed

	// Installed ring and its message stream.
	ring             ringInfo
	store            map[uint64]*dataMsg
	highSeq          uint64
	deliveredSeq     uint64
	sendQueue        []*dataMsg
	lastTokenSeq     uint64
	lastRingActivity time.Time

	// free holds stored-message records, each keeping its payload buffer:
	// every message the daemon stores or sends takes one, and install hands
	// back the retiring ring's (DESIGN §5 (2)). It is this daemon's alone.
	// poison makes install overwrite every record it hands back; tests turn
	// it on.
	free   []*dataMsg
	poison bool

	// w is the scratch encoder every outbound datagram is written into, ids
	// interns the daemon IDs inbound datagrams name, and seen is the list
	// every inbound JOIN decodes into. All are this daemon's alone: trials
	// run concurrently.
	w    wire.Writer
	ids  idTable
	seen []DaemonID

	// The protocol timers are created once, in NewDaemon (a fault timer, when
	// its member first joins a ring), and re-armed with Reset for the life of
	// the daemon, so the failure-free path schedules without allocating.
	heartbeatTimer env.Timer
	faultTimers    map[DaemonID]env.Timer
	tokenWatchdog  env.Timer
	phiScanTimer   env.Timer
	// pendingToken forwards fwd to the ring successor one tokenInterval after
	// the token arrived.
	pendingToken env.Timer
	fwd          tokenMsg

	// Ring state captured when leaving the operational state, used by the
	// Virtual Synchrony flush during recovery.
	old oldRing

	// Gather state. gathered is the set of daemons discovered so far, kept
	// sorted: it is this daemon's JOIN as it stands and, when discovery
	// closes, the membership it proposes.
	gathered       []DaemonID
	gatherDeadline env.Timer
	joinTicker     env.Timer
	formDeadline   env.Timer

	// rec is nil outside recovery and points at recState inside it: one
	// record, its per-member lists and its two timers serve every
	// reconfiguration of the daemon's life.
	rec              *recovery
	recState         recovery
	recoveryDeadline env.Timer
	recoveryRetry    env.Timer
	cohort           []int // flushOldRing's working list
	// earlyRec buffers recovery messages that race ahead of their FORM:
	// the coordinator broadcasts FORM and its RECOVER_STATE in the same
	// instant, and per-receiver latency can reorder them. Replayed on
	// enterRecovery, discarded on install or re-gather.
	earlyRec []func(*Daemon)

	groups       *groupLayer
	onMembership MembershipHandler
	onDelivery   []DeliveryHandler
	onDetection  DetectionHook
	health       *health.Monitor
	stats        daemonCounters

	// Latency instruments (nil when the Env carries no registry; observing on
	// a nil histogram is a zero-allocation no-op, so the uninstrumented run is
	// unchanged). The time.Time fields below are observation state only —
	// they never schedule events or draw randomness.
	mTokenRotation *metrics.Histogram
	mDelivery      *metrics.Histogram
	mInstall       *metrics.Histogram
	mRetransmits   *metrics.Histogram
	lastTokenAt    time.Time
	reconfigStart  time.Time
	retransEpisode uint64
}

// daemonCounters are the live activity counters. They are atomics — not
// plain fields guarded by the callback loop — because Stats() is read from
// outside the loop (the administrative channel and the /metrics endpoint
// both poll it from their own goroutines).
type daemonCounters struct {
	membershipsInstalled atomic.Uint64
	reconfigurations     atomic.Uint64
	tokensForwarded      atomic.Uint64
	dataSent             atomic.Uint64
	dataRetransmitted    atomic.Uint64
	dataDelivered        atomic.Uint64
	recoveryFlushes      atomic.Uint64
}

// Stats counts protocol activity since the daemon started; useful for the
// administrative channel and for tests asserting behaviour (for example,
// that a graceful client leave causes no reconfiguration).
type Stats struct {
	// MembershipsInstalled counts daemon-level configuration installs.
	MembershipsInstalled uint64
	// Reconfigurations counts entries into the discovery (gather) state.
	Reconfigurations uint64
	// TokensForwarded counts token passes to the successor.
	TokensForwarded uint64
	// DataSent counts first transmissions of totally ordered messages.
	DataSent uint64
	// DataRetransmitted counts retransmissions due to token requests.
	DataRetransmitted uint64
	// DataDelivered counts messages handed to the group layer in order.
	DataDelivered uint64
	// RecoveryFlushes counts old-ring messages delivered during Virtual
	// Synchrony recovery.
	RecoveryFlushes uint64
}

// Merge adds other's counters into s, aggregating the activity of a whole
// cluster's daemons into one view (the experiment harness attaches the sum
// to every measured data point).
func (s *Stats) Merge(other Stats) {
	s.MembershipsInstalled += other.MembershipsInstalled
	s.Reconfigurations += other.Reconfigurations
	s.TokensForwarded += other.TokensForwarded
	s.DataSent += other.DataSent
	s.DataRetransmitted += other.DataRetransmitted
	s.DataDelivered += other.DataDelivered
	s.RecoveryFlushes += other.RecoveryFlushes
}

// maxEarlyRec bounds the early-recovery buffer; anything beyond this is
// protocol noise and the periodic resends recover it.
const maxEarlyRec = 256

func (d *Daemon) stashEarly(f func(*Daemon)) {
	if len(d.earlyRec) < maxEarlyRec {
		d.earlyRec = append(d.earlyRec, f)
	}
}

type ringInfo struct {
	id      RingID
	members []DaemonID // sorted
	selfIdx int
	// succ is the member the token is forwarded to, with its transport
	// address parsed once, at install, rather than once per pass.
	succ     DaemonID
	succAddr env.Addr
}

func (r ringInfo) contains(id DaemonID) bool {
	for _, m := range r.members {
		if m == id {
			return true
		}
	}
	return false
}

func (r ringInfo) successor(self DaemonID) DaemonID {
	for i, m := range r.members {
		if m == self {
			return r.members[(i+1)%len(r.members)]
		}
	}
	return self
}

type oldRing struct {
	ring         ringInfo
	store        map[uint64]*dataMsg
	highSeq      uint64
	deliveredSeq uint64
}

// recovery is the state of one Virtual Synchrony flush. A member is its
// position in form.Members here: states, have and done are indexed by it.
type recovery struct {
	form     formMsg
	mine     recoverStateMsg // snapshot broadcast at recovery entry
	states   []recoverStateMsg
	have     []bool // states[i] has arrived
	done     []bool
	selfDone bool
	sent     map[uint64]bool // old-ring seqs already rebroadcast by us
}

// sized returns s with length n and every element zero, reusing its storage.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// NewDaemon creates a daemon on e. Its identity is the endpoint's stationary
// address. The instruments come from e too: events go to e.Tracer, the
// latency histograms land in e.Metrics, and e.HLC stamps every outbound
// message at transmit time and merges every inbound stamp, so traces on
// different daemons become causally comparable. Call Start to begin operation.
func NewDaemon(e env.Env, cfg Config) (*Daemon, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// A NopLogger counts as none: a simulated endpoint hands one out when it
	// was given no logger.
	_, discards := e.Log.(env.NopLogger)
	logging := e.Log != nil && !discards
	if !logging {
		e.Log = env.NopLogger{}
	}
	d := &Daemon{
		env:         e,
		cfg:         cfg,
		id:          DaemonID(e.Conn.LocalAddr().String()),
		logging:     logging,
		ids:         idTable{},
		faultTimers: map[DaemonID]env.Timer{},
	}
	d.heartbeatTimer = e.Clock.NewTimer(d.heartbeat)
	d.tokenWatchdog = e.Clock.NewTimer(d.checkTokenLoss)
	d.phiScanTimer = e.Clock.NewTimer(d.phiScan)
	d.pendingToken = e.Clock.NewTimer(d.forwardToken)
	d.gatherDeadline = e.Clock.NewTimer(d.closeGather)
	d.joinTicker = e.Clock.NewTimer(d.repeatJoin)
	d.formDeadline = e.Clock.NewTimer(d.formTimeout)
	d.recoveryDeadline = e.Clock.NewTimer(d.recoveryTimeout)
	d.recoveryRetry = e.Clock.NewTimer(d.resendRecovery)
	d.groups = newGroupLayer(d)
	node := metrics.L("node", string(d.id))
	d.mTokenRotation = e.Metrics.Histogram("gcs_token_rotation_seconds",
		"time between successive token arrivals at this daemon", node)
	d.mDelivery = e.Metrics.Histogram("gcs_delivery_seconds",
		"agreed-delivery latency from multicast send to in-order delivery, measured at the origin", node)
	d.mInstall = e.Metrics.Histogram("gcs_membership_install_seconds",
		"duration of one reconfiguration, from entering discovery to installing the new membership", node)
	d.mRetransmits = e.Metrics.Histogram("gcs_retransmits_per_reconfig",
		"retransmissions this daemon served between consecutive membership installations", node)
	return d, nil
}

// ID returns the daemon's identity (its stationary address).
func (d *Daemon) ID() DaemonID { return d.id }

// Start attaches the packet handler and begins the bootstrap discovery.
func (d *Daemon) Start() {
	if d.cfg.Detector == DetectorPhi && d.health == nil {
		// The phi detector needs a suspicion source. When no instrumented
		// monitor was installed (no metrics), self-provision a plain one so
		// `detector phi` works in every deployment shape.
		d.SetHealth(health.NewMonitor(health.Options{Node: string(d.id)}))
	}
	d.env.Conn.SetHandler(d.onPacket)
	d.enterGather("boot", 0)
}

// Leave announces a graceful departure to the current ring and stops the
// daemon. Peers reconfigure as soon as the announcement arrives — skipping
// the fault-detection timeout entirely — so an administrative daemon
// shutdown costs only the discovery round, not detection + discovery.
func (d *Daemon) Leave() {
	if d.closed {
		return
	}
	if d.state == stOperational && len(d.ring.members) > 1 {
		d.broadcast(leaveMsg{Ring: d.ring.id, Sender: d.id}.encode(&d.w))
	}
	d.stop()
}

// onLeave handles a peer's graceful departure announcement.
func (d *Daemon) onLeave(m leaveMsg) {
	if d.state != stOperational || m.Sender == d.id {
		return
	}
	if m.Ring != d.ring.id || !d.ring.contains(m.Sender) {
		return
	}
	if d.logging {
		d.env.Log.Logf("gcs %s: member %s left gracefully", d.id, m.Sender)
	}
	d.enterGather("leave:"+string(m.Sender), 0)
}

// stop ceases all protocol activity and closes the endpoint.
func (d *Daemon) stop() {
	if d.closed {
		return
	}
	d.closed = true
	d.cancelProtocolTimers()
	d.groups.stopAll()
	if err := d.env.Conn.Close(); err != nil && d.logging {
		d.env.Log.Logf("gcs %s: close endpoint: %v", d.id, err)
	}
}

// SetMembershipHandler registers cb to run at every daemon-level membership
// installation. A process has one membership consumer (the Table 1 probe, the
// flight recorder), so registering replaces. Call before Start.
func (d *Daemon) SetMembershipHandler(cb MembershipHandler) { d.onMembership = cb }

// AddDeliveryHandler registers cb to run at every Agreed delivery, after any
// previously registered delivery handler; with none registered (the default)
// the delivery path pays nothing. Call before Start.
func (d *Daemon) AddDeliveryHandler(cb DeliveryHandler) { d.onDelivery = append(d.onDelivery, cb) }

// Stats returns a snapshot of the daemon's activity counters. Unlike the
// rest of the daemon's methods it is safe to call from any goroutine.
func (d *Daemon) Stats() Stats {
	return Stats{
		MembershipsInstalled: d.stats.membershipsInstalled.Load(),
		Reconfigurations:     d.stats.reconfigurations.Load(),
		TokensForwarded:      d.stats.tokensForwarded.Load(),
		DataSent:             d.stats.dataSent.Load(),
		DataRetransmitted:    d.stats.dataRetransmitted.Load(),
		DataDelivered:        d.stats.dataDelivered.Load(),
		RecoveryFlushes:      d.stats.recoveryFlushes.Load(),
	}
}

// DetectionHook observes every failure declaration this daemon makes
// against a ring member, before the reconfiguration it triggers: peer is
// the declared-dead member and detector names the mechanism that fired
// ("fixed" or "phi"). Checkers use it to judge detections against ground
// truth (false-suspicion accounting on lossy-but-alive links).
type DetectionHook func(peer string, detector string)

// SetDetectionHook registers fn to run at every fault declaration. Call
// before Start.
func (d *Daemon) SetDetectionHook(fn DetectionHook) { d.onDetection = fn }

// Detector returns the active detection regime.
func (d *Daemon) Detector() Detector { return d.cfg.Detector }

// FaultDetectTimeout returns the fixed detection timeout T — the sole
// detection mechanism under DetectorFixed, the fallback floor under
// DetectorPhi.
func (d *Daemon) FaultDetectTimeout() time.Duration { return d.cfg.FaultDetectTimeout }

// SetHealth installs a detection-quality monitor (nil disables it). The
// daemon feeds it every heartbeat and token arrival, evaluates it on its scan
// tick, resets its peer set on each membership install, and notifies it when
// the fixed fault-detection timeout declares a member dead. Under
// DetectorFixed the monitor is observe-only; under DetectorPhi it is the
// authoritative suspicion source driving detection (with the fixed timeout
// as a floor). Call before Start.
//
// This is the one component installed after construction rather than read
// from the Env: the monitor is not an instrument the daemon reports to but a
// detector it calls into, evaluates on its own schedule and tunes from its
// own Config.
func (d *Daemon) SetHealth(m *health.Monitor) {
	// The monitor must not model the peer faster than the cadence it is
	// guaranteed: heartbeats. Token passes still sharpen recency.
	m.SetMinMean(d.cfg.HeartbeatInterval)
	m.SetClock(d.env.Clock.Now)
	d.health = m
}

// Ring returns the installed ring id and ordered members; ok is false before
// the first installation.
func (d *Daemon) Ring() (RingID, []DaemonID, bool) {
	if d.ring.id.isZero() {
		return RingID{}, nil, false
	}
	members := make([]DaemonID, len(d.ring.members))
	copy(members, d.ring.members)
	return d.ring.id, members, true
}

func (d *Daemon) cancelProtocolTimers() {
	d.heartbeatTimer.Stop()
	for _, t := range d.faultTimers {
		t.Stop()
	}
	d.tokenWatchdog.Stop()
	d.pendingToken.Stop()
	d.phiScanTimer.Stop()
	d.gatherDeadline.Stop()
	d.joinTicker.Stop()
	d.formDeadline.Stop()
	d.recoveryDeadline.Stop()
	d.recoveryRetry.Stop()
	d.rec = nil
}

func (d *Daemon) broadcast(payload []byte) {
	if d.env.HLC != nil {
		stampHeader(payload, d.env.HLC.Now())
	}
	if err := d.env.Conn.Broadcast(payload); err != nil && d.logging {
		d.env.Log.Logf("gcs %s: broadcast: %v", d.id, err)
	}
}

func (d *Daemon) sendTo(id DaemonID, to env.Addr, payload []byte) {
	if d.env.HLC != nil {
		stampHeader(payload, d.env.HLC.Now())
	}
	if err := d.env.Conn.SendTo(to, payload); err != nil && d.logging {
		d.env.Log.Logf("gcs %s: send to %s: %v", d.id, id, err)
	}
}

// onPacket decodes and dispatches one inbound datagram. Undecodable traffic
// is logged and dropped; a daemon must survive any bytes thrown at it.
func (d *Daemon) onPacket(from env.Addr, payload []byte) {
	if d.closed {
		return
	}
	r := wire.NewReader(payload)
	t, err := readHeader(r)
	if err != nil {
		if d.logging {
			d.env.Log.Logf("gcs %s: drop packet from %s: %v", d.id, from, err)
		}
		return
	}
	if d.env.HLC != nil {
		d.env.HLC.Observe(headerHLC(payload))
	}
	switch t {
	case mtAlive:
		m, err := d.ids.decodeAlive(r)
		if err == nil {
			d.onAlive(m)
		}
	case mtJoin:
		m, err := d.ids.decodeJoin(r, d.seen)
		d.seen = m.Seen
		if err == nil {
			d.onJoin(m)
		}
	case mtForm:
		m, err := d.ids.decodeForm(r)
		if err == nil {
			d.onForm(m)
		}
	case mtToken:
		m, err := d.ids.decodeToken(r)
		if err == nil {
			d.onToken(m)
		}
	case mtData:
		m, err := d.ids.decodeData(r)
		if err == nil {
			d.onData(&m)
		}
	case mtRecoverState:
		m, err := d.ids.decodeRecoverState(r)
		if err == nil {
			d.onRecoverState(m)
		}
	case mtRecoverData:
		m, err := d.ids.decodeRecoverData(r)
		if err == nil {
			d.onRecoverData(m)
		}
	case mtRecoverDone:
		m, err := d.ids.decodeRecoverDone(r)
		if err == nil {
			d.onRecoverDone(m)
		}
	case mtLeave:
		m, err := d.ids.decodeLeave(r)
		if err == nil {
			d.onLeave(m)
		}
	default:
		if d.logging {
			d.env.Log.Logf("gcs %s: drop packet from %s: unknown type %d", d.id, from, t)
		}
	}
}

// ---- Heartbeats and fault detection -------------------------------------

// heartbeat tells the ring this daemon is alive and re-arms itself.
func (d *Daemon) heartbeat() {
	if d.closed || d.state != stOperational {
		return
	}
	d.broadcast(aliveMsg{Ring: d.ring.id, Sender: d.id}.encode(&d.w))
	d.heartbeatTimer.Reset(d.cfg.HeartbeatInterval)
}

func (d *Daemon) startHeartbeats() {
	// First heartbeat goes out immediately so peers arm their detectors
	// from installation time.
	d.heartbeat()
	for _, m := range d.ring.members {
		if m == d.id {
			continue
		}
		d.armFaultTimer(m)
	}
	// Timers of daemons that left the membership were stopped on the way
	// here; dropping them keeps the map the size of the ring.
	for m := range d.faultTimers {
		if !d.ring.contains(m) {
			delete(d.faultTimers, m)
		}
	}
}

func (d *Daemon) armFaultTimer(m DaemonID) {
	t := d.faultTimers[m]
	if t == nil {
		t = d.env.Clock.NewTimer(func() {
			if d.closed || d.state != stOperational {
				return
			}
			if d.logging {
				d.env.Log.Logf("gcs %s: member %s silent beyond fault-detection timeout", d.id, m)
			}
			d.declareFault(m, "fixed")
		})
		d.faultTimers[m] = t
	}
	t.Reset(d.cfg.FaultDetectTimeout)
}

// declareFault declares ring member m dead on behalf of detector ("fixed" or
// "phi") and starts the reconfiguration. The order is load-bearing: health
// first, so that when the monitor's phi crosses only now its phi-suspect
// event HLC-orders before the heartbeat-miss it is measured against; then the
// trace event, the detection hook, and the gather they explain.
func (d *Daemon) declareFault(m DaemonID, detector string) {
	d.health.Detected(string(m), d.env.Clock.Now())
	d.env.Tracer.Emit(obs.Event{Source: obs.SourceGCS, Kind: obs.KindHeartbeatMiss, Node: string(d.id), Detail: string(m)})
	if d.onDetection != nil {
		d.onDetection(string(m), detector)
	}
	d.enterGather("fault:"+string(m), 0)
}

// startPhiScan arms the health scan whenever a monitor is installed. Every
// phiCheckInterval it evaluates each ring member's phi once, so an upward
// threshold crossing is counted and traced with nobody asking. Only under
// DetectorPhi does a crossing also declare the member faulty, entering the
// same reconfiguration path as the fixed timeout — just earlier. The
// per-member fixed timers stay armed underneath as the floor, so a peer whose
// phi never crosses (an under-sampled window at boot, say) is still detected
// at T.
func (d *Daemon) startPhiScan() {
	if d.health != nil {
		d.phiScanTimer.Reset(d.cfg.phiCheckInterval())
	}
}

func (d *Daemon) phiScan() {
	if d.closed || d.state != stOperational {
		return
	}
	now := d.env.Clock.Now()
	for _, m := range d.ring.members {
		if m == d.id {
			continue
		}
		if phi := d.health.Phi(string(m), now); phi >= health.Threshold && d.cfg.Detector == DetectorPhi {
			if d.logging {
				d.env.Log.Logf("gcs %s: member %s phi %.2f crossed threshold %.2f", d.id, m, phi, health.Threshold)
			}
			d.declareFault(m, "phi")
			return // no longer operational; the scan dies with the state
		}
	}
	d.phiScanTimer.Reset(d.cfg.phiCheckInterval())
}

func (d *Daemon) onAlive(m aliveMsg) {
	if d.state != stOperational || m.Sender == d.id {
		return
	}
	if m.Ring == d.ring.id && d.ring.contains(m.Sender) {
		d.health.Observe(string(m.Sender), d.env.Clock.Now())
		d.armFaultTimer(m.Sender)
		return
	}
	if !d.ring.contains(m.Sender) {
		// A daemon outside our membership is alive: a merge (or a booted
		// daemon) requires full reconfiguration.
		if d.logging {
			d.env.Log.Logf("gcs %s: foreign daemon %s detected, reconfiguring", d.id, m.Sender)
		}
		d.enterGather("foreign:"+string(m.Sender), 0)
	}
}

// ---- Gather (discovery) ---------------------------------------------------

func (d *Daemon) enterGather(reason string, minRound uint64) {
	if d.closed {
		return
	}
	if d.state == stOperational {
		// Capture the installed ring for the Virtual Synchrony flush.
		d.old = oldRing{
			ring:         d.ring,
			store:        d.store,
			highSeq:      d.highSeq,
			deliveredSeq: d.deliveredSeq,
		}
	}
	d.cancelProtocolTimers()
	d.earlyRec = nil
	d.stats.reconfigurations.Add(1)
	if d.reconfigStart.IsZero() {
		// First discovery entry of this episode; repeated gather rounds
		// before the next install extend the same measurement.
		d.reconfigStart = d.env.Clock.Now()
	}
	d.env.Tracer.Emit(obs.Event{Source: obs.SourceGCS, Kind: obs.KindGatherEnter, Node: string(d.id), Detail: reason})
	d.state = stGather
	if minRound > d.round {
		d.round = minRound
	} else {
		d.round++
	}
	d.gathered = append(d.gathered[:0], d.id)
	if d.logging {
		d.env.Log.Logf("gcs %s: gather round %d (%s)", d.id, d.round, reason)
	}
	d.sendJoin()
	d.joinTicker.Reset(d.cfg.joinInterval())
	d.gatherDeadline.Reset(d.cfg.DiscoveryTimeout)
}

// repeatJoin re-announces this daemon for as long as discovery lasts.
func (d *Daemon) repeatJoin() {
	if d.closed || d.state != stGather {
		return
	}
	d.sendJoin()
	d.joinTicker.Reset(d.cfg.joinInterval())
}

// currentJoin is this daemon's JOIN: its round and everyone it has heard.
func (d *Daemon) currentJoin() joinMsg {
	return joinMsg{Sender: d.id, Round: d.round, Seen: d.gathered}
}

func (d *Daemon) sendJoin() { d.broadcast(d.currentJoin().encode(&d.w)) }

func (d *Daemon) mergeGathered(m joinMsg) {
	d.gather(m.Sender)
	for _, id := range m.Seen {
		d.gather(id)
	}
}

// gather adds id to the discovered set.
func (d *Daemon) gather(id DaemonID) {
	if i, found := slices.BinarySearch(d.gathered, id); !found {
		d.gathered = slices.Insert(d.gathered, i, id)
	}
}

func (d *Daemon) onJoin(m joinMsg) {
	switch d.state {
	case stOperational:
		if d.ring.contains(m.Sender) && m.Round <= d.installedRound {
			return // stale echo of the gather that formed this ring
		}
		d.enterGather("join:"+string(m.Sender), m.Round)
		d.mergeGathered(m)
	case stGather:
		switch {
		case m.Round > d.round:
			d.round = m.Round
			d.mergeGathered(m)
			d.gatherDeadline.Reset(d.cfg.DiscoveryTimeout)
		case m.Round == d.round:
			d.mergeGathered(m)
		default:
			// Help a laggard catch up with the current round.
			if m.Sender != d.id {
				d.sendTo(m.Sender, addrOf(m.Sender), d.currentJoin().encode(&d.w))
			}
		}
	case stCommitWait:
		switch {
		case m.Round > d.round:
			d.enterGather("join:"+string(m.Sender), m.Round)
			d.mergeGathered(m)
		case m.Round == d.round && !slices.Contains(d.gathered, m.Sender):
			// A reachable daemon we missed during discovery: re-gather so
			// the configuration converges in one attempt instead of two.
			d.enterGather("late-join:"+string(m.Sender), 0)
			d.mergeGathered(m)
		}
	case stRecover:
		if m.Round > d.round {
			d.enterGather("join:"+string(m.Sender), m.Round)
			d.mergeGathered(m)
		}
	}
}

func (d *Daemon) closeGather() {
	if d.closed || d.state != stGather {
		return
	}
	d.joinTicker.Stop()
	// The proposal outlives the gather set: it becomes the ring's member list.
	members := slices.Clone(d.gathered)
	d.state = stCommitWait
	if members[0] == d.id {
		d.maxEpoch++
		form := formMsg{
			Round:   d.round,
			Ring:    RingID{Coord: d.id, Epoch: d.maxEpoch},
			Members: members,
		}
		if d.logging {
			d.env.Log.Logf("gcs %s: forming ring %s with %d members", d.id, form.Ring, len(members))
		}
		if d.env.Tracer.Enabled() {
			d.env.Tracer.Emit(obs.Event{Source: obs.SourceGCS, Kind: obs.KindFormRing, Node: string(d.id),
				Group: form.Ring.String(), Detail: fmt.Sprintf("members=%d", len(members))})
		}
		d.broadcast(form.encode(&d.w))
		d.onForm(form)
		return
	}
	d.formDeadline.Reset(d.cfg.FormTimeout())
}

func (d *Daemon) formTimeout() {
	if d.closed || d.state != stCommitWait {
		return
	}
	if d.logging {
		d.env.Log.Logf("gcs %s: no FORM from coordinator, re-gathering", d.id)
	}
	d.enterGather("form-timeout", 0)
}

func (d *Daemon) onForm(m formMsg) {
	if d.closed {
		return
	}
	if d.rec != nil && d.rec.form.Ring == m.Ring {
		return // duplicate of the FORM we are already recovering under
	}
	selfIn := false
	for _, id := range m.Members {
		if id == d.id {
			selfIn = true
			break
		}
	}
	if !selfIn {
		return // a configuration that excludes us; our own gather continues
	}
	switch d.state {
	case stGather, stCommitWait:
		if m.Round < d.round {
			return
		}
	case stRecover:
		if m.Round <= d.rec.form.Round {
			return
		}
	case stOperational:
		if m.Round <= d.installedRound {
			return
		}
		// Someone formed a newer configuration that includes us while we
		// believed we were operational: fall back to discovery so the flush
		// state stays coherent.
		d.enterGather("stale-operational", m.Round)
		return
	}
	d.round = m.Round
	if m.Ring.Epoch > d.maxEpoch {
		d.maxEpoch = m.Ring.Epoch
	}
	d.gatherDeadline.Stop()
	d.joinTicker.Stop()
	d.formDeadline.Stop()
	d.enterRecovery(m)
}

// ---- Recovery (Virtual Synchrony flush) ----------------------------------

func (d *Daemon) enterRecovery(form formMsg) {
	d.state = stRecover
	if d.env.Tracer.Enabled() {
		d.env.Tracer.Emit(obs.Event{Source: obs.SourceGCS, Kind: obs.KindRecoverEnter, Node: string(d.id), Group: form.Ring.String()})
	}
	rec, n := &d.recState, len(form.Members)
	clear(rec.sent)
	*rec = recovery{
		form:   form,
		states: sized(rec.states, n),
		have:   sized(rec.have, n),
		done:   sized(rec.done, n),
		sent:   rec.sent,
	}
	d.rec = rec
	d.recoveryDeadline.Reset(d.cfg.RecoveryTimeout())
	rec.mine = recoverStateMsg{
		Ring:    form.Ring,
		Sender:  d.id,
		OldRing: d.old.ring.id,
		OldHigh: d.old.highSeq,
		Missing: d.oldMissing(),
	}
	d.recoveryRetry.Reset(d.cfg.RecoveryTimeout() / 4)
	d.broadcast(rec.mine.encode(&d.w))
	d.onRecoverState(rec.mine)
	replay := d.earlyRec
	d.earlyRec = nil
	for _, f := range replay {
		if d.rec == nil {
			return // a replayed message ended the recovery; stop
		}
		f(d)
	}
}

// recoveryTimeout gives up on a recovery that did not complete in time. The
// deadline is disarmed whenever a recovery ends, so it can only fire for the
// one in progress.
func (d *Daemon) recoveryTimeout() {
	if d.closed || d.state != stRecover {
		return
	}
	if d.logging {
		d.env.Log.Logf("gcs %s: recovery for ring %s stalled, re-gathering", d.id, d.rec.form.Ring)
	}
	d.enterGather("recovery-timeout", 0)
}

// resendRecovery repeats this daemon's side of the exchange. Recovery
// messages race with the FORM broadcast and with each other; periodic resends
// make the exchange robust to reordering and loss without changing its
// outcome (receivers are idempotent and the state snapshot is immutable).
func (d *Daemon) resendRecovery() {
	if d.closed || d.state != stRecover {
		return
	}
	rec := d.rec
	if rec.form.Members[0] == d.id {
		d.broadcast(rec.form.encode(&d.w))
	}
	d.broadcast(rec.mine.encode(&d.w))
	if rec.selfDone {
		d.broadcast(recoverDoneMsg{Ring: rec.form.Ring, Sender: d.id}.encode(&d.w))
	}
	d.recoveryRetry.Reset(d.cfg.RecoveryTimeout() / 4)
}

// oldMissing lists the old-ring sequence numbers this daemon never received.
func (d *Daemon) oldMissing() []uint64 {
	if d.old.ring.id.isZero() {
		return nil
	}
	var missing []uint64
	for s := uint64(1); s <= d.old.highSeq; s++ {
		if _, ok := d.old.store[s]; !ok {
			missing = append(missing, s)
		}
	}
	return missing
}

func (d *Daemon) onRecoverState(m recoverStateMsg) {
	if d.rec == nil || m.Ring != d.rec.form.Ring {
		if d.state == stGather || d.state == stCommitWait {
			d.stashEarly(func(d *Daemon) { d.onRecoverState(m) })
		}
		return
	}
	if i := slices.Index(d.rec.form.Members, m.Sender); i >= 0 {
		d.rec.states[i], d.rec.have[i] = m, true
	}
	d.checkRecovery()
}

func (d *Daemon) onRecoverData(m recoverDataMsg) {
	if d.rec == nil || m.Ring != d.rec.form.Ring {
		if d.state == stGather || d.state == stCommitWait {
			// The stash outlives the datagram the payload aliases.
			m.Msg.Payload = slices.Clone(m.Msg.Payload)
			d.stashEarly(func(d *Daemon) { d.onRecoverData(m) })
		}
		return
	}
	if d.old.ring.id.isZero() || m.OldRing != d.old.ring.id {
		return
	}
	if _, ok := d.old.store[m.Msg.Seq]; !ok {
		d.old.store[m.Msg.Seq] = d.stored(&m.Msg)
	}
	d.checkRecovery()
}

func (d *Daemon) onRecoverDone(m recoverDoneMsg) {
	if d.rec == nil || m.Ring != d.rec.form.Ring {
		if d.state == stGather || d.state == stCommitWait {
			d.stashEarly(func(d *Daemon) { d.onRecoverDone(m) })
		}
		return
	}
	if i := slices.Index(d.rec.form.Members, m.Sender); i >= 0 {
		d.rec.done[i] = true
	}
	d.checkRecovery()
}

func (d *Daemon) checkRecovery() {
	rec := d.rec
	if rec == nil {
		return
	}
	if slices.Contains(rec.have, false) {
		return
	}
	if !rec.selfDone {
		if !d.flushOldRing() {
			return // still waiting for retransmissions
		}
		rec.selfDone = true
		done := recoverDoneMsg{Ring: rec.form.Ring, Sender: d.id}
		d.broadcast(done.encode(&d.w))
		d.onRecoverDone(done)
		// onRecoverDone re-enters checkRecovery; avoid double work.
		return
	}
	if slices.Contains(rec.done, false) {
		return
	}
	d.install(rec.form)
}

// flushOldRing implements the Virtual Synchrony guarantee: all members of
// the old ring that advance together into the new ring first deliver an
// identical set of old-ring messages, in sequence order. It reports whether
// the flush is complete; if retransmissions are still needed it sends the
// ones this daemon is responsible for and returns false.
func (d *Daemon) flushOldRing() bool {
	rec := d.rec
	if d.old.ring.id.isZero() {
		return true // fresh daemon: nothing to flush
	}
	// The cohort: new-ring members that came from the same old ring, as
	// positions in the new membership, in its order.
	cohort := d.cohort[:0]
	target := uint64(0)
	for i := range rec.states {
		st := &rec.states[i]
		if !rec.have[i] || st.OldRing != d.old.ring.id {
			continue
		}
		cohort = append(cohort, i)
		target = max(target, st.OldHigh)
	}
	d.cohort = cohort
	lacks := func(i int, s uint64) bool {
		st := &rec.states[i]
		return s > st.OldHigh || slices.Contains(st.Missing, s)
	}
	complete := true
	for s := uint64(1); s <= target; s++ {
		_, have := d.old.store[s]
		available := have
		firstHolder := -1
		anyLacks := false
		for _, i := range cohort {
			if !lacks(i, s) {
				if firstHolder < 0 {
					firstHolder = i
				}
				available = true
			} else {
				anyLacks = true
			}
		}
		// Note: "available" from states reflects reception before recovery
		// started; a message nobody in the cohort holds was never delivered
		// by anyone (Agreed delivery is contiguous) and is skipped by all.
		if !available {
			continue
		}
		if !have {
			complete = false
			continue
		}
		if anyLacks && firstHolder >= 0 && rec.form.Members[firstHolder] == d.id && !rec.sent[s] {
			if rec.sent == nil {
				rec.sent = map[uint64]bool{}
			}
			rec.sent[s] = true
			d.broadcast(recoverDataMsg{Ring: rec.form.Ring, OldRing: d.old.ring.id, Msg: *d.old.store[s]}.encode(&d.w))
		}
	}
	if !complete {
		return false
	}
	// Deliver every available undelivered old-ring message in sequence
	// order. All cohort members compute the same set, preserving Virtual
	// Synchrony.
	for s := d.old.deliveredSeq + 1; s <= target; s++ {
		if msg, ok := d.old.store[s]; ok {
			d.old.deliveredSeq = s
			d.stats.recoveryFlushes.Add(1)
			for _, cb := range d.onDelivery {
				cb(msg.Ring, msg.Seq, msg.Origin)
			}
			d.groups.deliverData(msg)
		}
	}
	return true
}

func (d *Daemon) install(form formMsg) {
	d.recoveryDeadline.Stop()
	d.recoveryRetry.Stop()
	d.rec = nil
	d.earlyRec = nil
	// The group layer lets go of the retiring ring's records before they are
	// handed back, and they are handed back before the store forgets them.
	d.groups.retirePending()
	d.recycle()
	selfIdx := 0
	for i, m := range form.Members {
		if m == d.id {
			selfIdx = i
		}
	}
	d.ring = ringInfo{id: form.Ring, members: form.Members, selfIdx: selfIdx}
	d.ring.succ = d.ring.successor(d.id)
	d.ring.succAddr = addrOf(d.ring.succ)
	d.installedRound = form.Round
	d.round = form.Round
	// The old ring's store — the one map since the last install, captured as
	// d.old.store on the way out of it — is emptied and serves the new ring.
	if d.store == nil {
		d.store = map[uint64]*dataMsg{}
	}
	clear(d.store)
	d.highSeq = 0
	d.deliveredSeq = 0
	d.lastTokenSeq = 0
	d.old = oldRing{}
	d.state = stOperational
	d.lastRingActivity = d.env.Clock.Now()
	d.stats.membershipsInstalled.Add(1)
	if !d.reconfigStart.IsZero() {
		d.mInstall.ObserveDuration(d.lastRingActivity.Sub(d.reconfigStart))
		d.reconfigStart = time.Time{}
	}
	d.mRetransmits.Observe(float64(d.retransEpisode))
	d.retransEpisode = 0
	// Token rotation restarts with the new ring; the first arrival on it
	// must not be measured against the previous ring's last token.
	d.lastTokenAt = time.Time{}
	if d.logging {
		d.env.Log.Logf("gcs %s: installed ring %s members=%v", d.id, form.Ring, form.Members)
	}
	if d.health != nil {
		peers := make([]string, 0, len(form.Members)-1)
		for _, m := range form.Members {
			if m != d.id {
				peers = append(peers, string(m))
			}
		}
		d.health.SetPeers(form.Ring.Epoch, peers, d.lastRingActivity)
	}
	if d.env.Tracer.Enabled() {
		d.env.Tracer.Emit(obs.Event{Source: obs.SourceGCS, Kind: obs.KindInstall, Node: string(d.id),
			Group: form.Ring.String(), Detail: fmt.Sprintf("members=%d", len(form.Members))})
	}

	d.startHeartbeats()
	d.startPhiScan()
	d.startTokenWatchdog()
	d.groups.onInstall()
	if selfIdx == 0 {
		// The coordinator injects the first token.
		d.onToken(tokenMsg{Ring: d.ring.id, TokenSeq: 1, Seq: 0})
	}
	if d.onMembership != nil {
		members := make([]DaemonID, len(form.Members))
		copy(members, form.Members)
		d.onMembership(form.Ring, members)
	}
}

// ---- Operational ring: token and data ------------------------------------

func (d *Daemon) startTokenWatchdog() { d.tokenWatchdog.Reset(d.cfg.TokenLossTimeout() / 2) }

func (d *Daemon) checkTokenLoss() {
	if d.closed || d.state != stOperational {
		return
	}
	if d.env.Clock.Now().Sub(d.lastRingActivity) > d.cfg.TokenLossTimeout() {
		if d.logging {
			d.env.Log.Logf("gcs %s: token lost on ring %s", d.id, d.ring.id)
		}
		d.enterGather("token-loss", 0)
		return
	}
	d.startTokenWatchdog()
}

// sendData queues a group-layer message of kind for total ordering and
// returns its record, whose emptied payload buffer the caller encodes the
// message into. The message is assigned a sequence number when the token next
// visits this daemon; queued messages survive membership changes and are sent
// in whatever ring is operational when the token arrives.
func (d *Daemon) sendData(kind dataKind) *dataMsg {
	m := d.record()
	*m = dataMsg{Origin: d.id, Kind: kind, Payload: m.Payload[:0], sentAt: d.env.Clock.Now()}
	d.sendQueue = append(d.sendQueue, m)
	return m
}

const maxRtrPerToken = 128

// maxSendQueue bounds the unsent-message backlog; Session.Multicast returns
// errBackpressure beyond it. Control messages (joins, leaves, groups-state)
// bypass the bound — they are few and losing them would wedge membership.
const maxSendQueue = 4096

func (d *Daemon) onToken(tok tokenMsg) {
	if d.closed || d.state != stOperational || tok.Ring != d.ring.id {
		return
	}
	if tok.TokenSeq <= d.lastTokenSeq {
		return // stale or duplicate token
	}
	d.lastTokenSeq = tok.TokenSeq
	d.lastRingActivity = d.env.Clock.Now()
	if !d.lastTokenAt.IsZero() {
		d.mTokenRotation.ObserveDuration(d.lastRingActivity.Sub(d.lastTokenAt))
	}
	d.lastTokenAt = d.lastRingActivity
	// A token arrival is a liveness signal from the ring predecessor that
	// forwarded it; heartbeats alone would halve the health plane's signal
	// rate on small rings.
	if d.health != nil && len(d.ring.members) > 1 {
		pred := d.ring.members[(d.ring.selfIdx-1+len(d.ring.members))%len(d.ring.members)]
		d.health.Observe(string(pred), d.lastRingActivity)
	}

	// Serve retransmission requests we can satisfy; keep the rest.
	var rtr []uint64
	for _, s := range tok.Rtr {
		if msg, ok := d.store[s]; ok {
			d.stats.dataRetransmitted.Add(1)
			d.retransEpisode++
			d.broadcast(msg.encode(&d.w))
		} else {
			rtr = append(rtr, s)
		}
	}
	// Request our own gaps.
	for s := d.deliveredSeq + 1; s <= tok.Seq && len(rtr) < maxRtrPerToken; s++ {
		if _, ok := d.store[s]; !ok {
			rtr = append(rtr, s)
		}
	}

	// Introduce queued messages, up to the window. What stays queued moves
	// to the front, so the queue keeps its storage from one visit to the next.
	sent := min(window, len(d.sendQueue))
	for _, msg := range d.sendQueue[:sent] {
		tok.Seq++
		msg.Ring = d.ring.id
		msg.Seq = tok.Seq
		d.store[msg.Seq] = msg
		if msg.Seq > d.highSeq {
			d.highSeq = msg.Seq
		}
		d.stats.dataSent.Add(1)
		d.broadcast(msg.encode(&d.w))
	}
	kept := copy(d.sendQueue, d.sendQueue[sent:])
	clear(d.sendQueue[kept:])
	d.sendQueue = d.sendQueue[:kept]
	d.tryDeliver()

	tok.Rtr = rtr
	tok.TokenSeq++
	d.fwd = tok
	d.pendingToken.Reset(tokenInterval)
}

// forwardToken passes d.fwd to the ring successor, unless the ring it was
// held for is gone.
func (d *Daemon) forwardToken() {
	if d.closed || d.state != stOperational || d.ring.id != d.fwd.Ring {
		return
	}
	d.stats.tokensForwarded.Add(1)
	d.sendTo(d.ring.succ, d.ring.succAddr, d.fwd.encode(&d.w))
}

// onData takes one data message off the wire. m aliases the datagram: a
// message this daemon already holds — its own broadcast looping back, a
// retransmission somebody else asked for — costs nothing, and one it lacks is
// copied into the store.
func (d *Daemon) onData(m *dataMsg) {
	if d.state == stOperational && m.Ring == d.ring.id {
		d.lastRingActivity = d.env.Clock.Now()
		if _, ok := d.store[m.Seq]; !ok {
			d.store[m.Seq] = d.stored(m)
			if m.Seq > d.highSeq {
				d.highSeq = m.Seq
			}
			d.tryDeliver()
		}
		return
	}
	// A straggler from the previous ring while we are recovering counts as
	// recovery input.
	if d.rec != nil && !d.old.ring.id.isZero() && m.Ring == d.old.ring.id {
		if _, ok := d.old.store[m.Seq]; !ok {
			d.old.store[m.Seq] = d.stored(m)
		}
		d.checkRecovery()
	}
}

// stored returns a record from the free list holding a copy of m, payload
// included.
func (d *Daemon) stored(m *dataMsg) *dataMsg {
	c := d.record()
	payload := append(c.Payload[:0], m.Payload...)
	*c = *m
	c.Payload = payload
	return c
}

// maxFree bounds the free list: a ring that stored an unusual burst leaves no
// more than this many records behind for the rings after it.
const maxFree = 256

// record takes a record off the free list, or makes one when it is empty.
func (d *Daemon) record() *dataMsg {
	n := len(d.free)
	if n == 0 {
		return new(dataMsg)
	}
	m := d.free[n-1]
	d.free[n-1] = nil
	d.free = d.free[:n-1]
	return m
}

// recycle hands every record in the store — the retiring ring's, which
// nothing else holds by now — back to the free list in sequence order: the
// next ring's first message takes the old ring's first record, so which buffer
// serves which message, and so what grows, is a function of the seed. The
// records are sorted where they land, on the list's tail, so an install that
// finds the list's storage warm allocates nothing to recycle.
func (d *Daemon) recycle() {
	n := len(d.free)
	for _, m := range d.store {
		d.free = append(d.free, m)
	}
	// Descending: the list is taken from its end.
	slices.SortFunc(d.free[n:], func(a, b *dataMsg) int { return cmp.Compare(b.Seq, a.Seq) })
	if d.poison {
		for _, m := range d.free[n:] {
			poisonRecord(m)
		}
	}
	if over := len(d.free) - maxFree; over > 0 {
		copy(d.free, d.free[over:])
		clear(d.free[maxFree:])
		d.free = d.free[:maxFree]
	}
}

// poisonRecord overwrites a record and its whole buffer, so that whoever still
// reads it after it was handed back reads nonsense.
func poisonRecord(m *dataMsg) {
	p := m.Payload[:cap(m.Payload)]
	for i := range p {
		p[i] = 0xDB
	}
	*m = dataMsg{Ring: RingID{Coord: "poisoned", Epoch: ^uint64(0)}, Seq: ^uint64(0), Origin: "poisoned", Kind: 0xDB, Payload: p}
}

// tryDeliver hands contiguous messages to the group layer in sequence
// order: Agreed delivery.
func (d *Daemon) tryDeliver() {
	for {
		msg, ok := d.store[d.deliveredSeq+1]
		if !ok {
			return
		}
		d.deliveredSeq++
		d.stats.dataDelivered.Add(1)
		if !msg.sentAt.IsZero() {
			// Only the origin's own copy carries a send timestamp.
			d.mDelivery.ObserveDuration(d.env.Clock.Now().Sub(msg.sentAt))
		}
		for _, cb := range d.onDelivery {
			cb(msg.Ring, msg.Seq, msg.Origin)
		}
		d.groups.deliverData(msg)
	}
}
