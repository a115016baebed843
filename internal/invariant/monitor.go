// Package invariant is the always-on protocol-invariant monitor layer: the
// five oracles the model checker introduced (exactly-once coverage, bounded
// convergence, view order, Agreed delivery order, foreign claim) plus the
// two gray-failure oracles (bounded ownership ping-pong under flap, bounded
// false-detection rate on lossy-but-alive links) and the placement-plane
// churn oracle (bounded VIP relocations per reconfiguration) packaged as a
// Monitor that attaches to any set of nodes through the existing nil-safe,
// chainable observation hooks (core.Engine.AddViewHook and AddOwnershipHook,
// gcs.Daemon.AddDeliveryHandler). Every consumer — the model checker,
// wacksim experiments and availability traffic sweeps, a live wackamole daemon —
// runs the same monitor: per-node and per-ring state is pre-sized and
// bounded so the hot path (one callback per Agreed delivery) allocates
// nothing, and every entry a bound forgets is counted by Dropped, so a
// verdict reached while Dropped reads 0 is exact. This is the way the
// Derecho runtime-checking work runs one predicate set continuously, under
// a checker and in production-shaped deployments alike.
//
// A Monitor is safe for concurrent hook callbacks: under the deterministic
// simulator everything runs on one goroutine, but the realtime environment
// drives each node from its own loop goroutine and the monitor is the one
// piece of state they share.
package invariant

import (
	"fmt"
	"sync"
	"time"

	"wackamole/internal/core"
	"wackamole/internal/gcs"
	"wackamole/internal/metrics"
	"wackamole/internal/obs"
)

// Bounds on the monitor's state. Every entry a bound makes the monitor
// forget is counted in Dropped.
const (
	// originWindow is the per-ring cross-node origin-agreement window: how
	// many recent (ring, seq) slots are retained for the delivery-order
	// oracle. Deliveries more than a window behind the newest one on their
	// ring fall out of the comparison (in a live system every attached
	// daemon has long moved past them).
	originWindow = 1024
	// viewHistory is the per-node view-installation history retained for
	// the cross-node view-order oracle.
	viewHistory = 64
	// maxRings bounds how many rings keep an origin window; the least
	// recently delivering ring is evicted first. Rings are created by
	// membership changes, so the bound is generous for any real run.
	maxRings = 128
	// maxViews bounds the view-identity table (view ID → member list); the
	// oldest pinned view is forgotten first.
	maxViews = 1024
	// maxShards bounds per-VIP-group ownership state; ownership events for
	// groups beyond it go untracked.
	maxShards = 1024
)

// Node is the slice of a cluster member the monitor needs to attach its
// hooks; *wackamole.Node satisfies it.
type Node interface {
	Engine() *core.Engine
	Daemon() *gcs.Daemon
	Member() core.MemberID
}

// Config parameterizes a Monitor.
type Config struct {
	// Nodes is the number of attachable node slots (required, >= 1).
	Nodes int
	// Now stamps violations with an offset from the start of the run:
	// virtual time under the simulator, wall time since New otherwise
	// (nil). SetNow may replace it after construction.
	Now func() time.Duration
	// Metrics receives the invariant_* counter families (nil disables).
	Metrics *metrics.Registry
	// Tracer receives one invariant-violation event per detected violation
	// (nil disables it).
	Tracer *obs.Tracer
	// Name tags trace events; empty means "invariant".
	Name string
	// OnViolation, if set, runs once with the first violation (after the
	// counters and trace event are recorded).
	OnViolation func(*Violation)

	// PingPongBound arms the ping-pong oracle: a violation trips when any
	// single VIP group is claimed (false→true ownership transition) more
	// than PingPongBound times within PingPongWindow. Zero disables the
	// oracle, so existing consumers are unaffected. Harnesses injecting
	// flap shapes derive the bound from the flap period — each down/up
	// cycle legitimately forces up to two re-claims.
	PingPongBound int
	// PingPongWindow is the sliding window for PingPongBound; zero with a
	// nonzero bound means 10s.
	PingPongWindow time.Duration
	// FalseSuspectBound arms the false-suspicion oracle: a violation trips
	// when attached nodes report more than FalseSuspectBound false
	// detections via OnFalseSuspicion (the caller judges ground truth —
	// the suspected peer was alive and reachable). Zero disables.
	FalseSuspectBound int
	// ChurnBound arms the churn oracle from construction: a violation trips
	// when any single view relocates more than ChurnBound VIP groups
	// between live owners. Zero disables. Harnesses that must exclude
	// cluster formation (whose incremental views legitimately exceed a
	// single-change bound) leave this zero and call ArmChurn once the
	// cluster has settled.
	ChurnBound int
}

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "invariant"
	}
	if c.PingPongBound > 0 && c.PingPongWindow <= 0 {
		c.PingPongWindow = 10 * time.Second
	}
	return c
}

// churnViewWindow is how many recent views keep a relocation count; views
// complete one at a time, so a handful covers any cross-node install skew.
const churnViewWindow = 8

// churnView is one view's relocation tally.
type churnView struct {
	id    string
	moves int
}

// originSlot is one retained (seq, origin) attribution in a ring's window.
type originSlot struct {
	seq    uint64
	origin gcs.DaemonID
	set    bool
}

// ringState is one ring's bounded origin window.
type ringState struct {
	window []originSlot
	touch  uint64 // monotone recency stamp for eviction
}

// Monitor validates the typed hook streams from every attached node
// online. All exported methods are safe for concurrent use and are no-ops
// on a nil receiver, mirroring the tracer/registry idiom.
type Monitor struct {
	mu   sync.Mutex
	cfg  Config
	now  func() time.Duration
	step int

	selfs       []core.MemberID
	currentView []core.View
	installs    uint64

	// viewMembers pins the member list first seen for each view ID;
	// viewEvict bounds it to maxViews entries.
	viewMembers  map[string][]core.MemberID
	viewEvict    []string
	viewEvictPos int

	// Bounded per-node view-history rings and per-ring origin windows.
	hist      [][]string
	histStart []int
	histLen   []int
	rings     map[gcs.RingID]*ringState
	ringTick  uint64

	// dropped counts entries the bounds above (and maxShards) forgot.
	dropped uint64

	// lastSeq is each daemon's last delivered seq per ring.
	lastSeq []map[gcs.RingID]uint64

	// Shard-aware ownership state: one claim bitmap per VIP group, so
	// sharded ownership (ROADMAP item 1) is checked per shard rather than
	// whole-table.
	shardIdx    map[string]int
	shardNames  []string
	shardClaims [][]bool
	shardCount  []int
	multiOwner  int

	// Ping-pong oracle state: per-shard ring of the PingPongBound+1 most
	// recent claim times (allocated per shard only when the oracle is
	// armed), plus head cursor and fill count.
	claimTimes [][]time.Duration
	claimHead  []int
	claimLen   []int

	// False-suspicion oracle state: detections judged false by callers.
	falseSuspects int

	// Churn oracle state: per-shard last acquiring node slot (-1 until the
	// first acquisition) and the view that last counted the shard as
	// relocated, plus a small ring of per-view relocation counts. The owner
	// history is maintained even while the oracle is disarmed, so ArmChurn
	// can arm it mid-run with full context.
	churnBound    int
	lastOwner     []int
	lastMovedView []string
	churnViews    [churnViewWindow]churnView
	churnViewPos  int

	violation         *Violation
	violationReported bool

	viewsC, delivC, ownC, violC *metrics.Counter
	oracleC                     map[string]*metrics.Counter
	multiG                      *metrics.Gauge
}

// New builds a Monitor for cfg.Nodes attachable nodes.
func New(cfg Config) *Monitor {
	cfg = cfg.withDefaults()
	if cfg.Nodes < 1 {
		cfg.Nodes = 1
	}
	m := &Monitor{
		cfg:         cfg,
		now:         cfg.Now,
		selfs:       make([]core.MemberID, cfg.Nodes),
		currentView: make([]core.View, cfg.Nodes),
		viewMembers: make(map[string][]core.MemberID),
		viewEvict:   make([]string, 0, maxViews),
		hist:        make([][]string, cfg.Nodes),
		histStart:   make([]int, cfg.Nodes),
		histLen:     make([]int, cfg.Nodes),
		rings:       make(map[gcs.RingID]*ringState, maxRings),
		lastSeq:     make([]map[gcs.RingID]uint64, cfg.Nodes),
		shardIdx:    make(map[string]int),
		churnBound:  cfg.ChurnBound,
	}
	for i := range m.hist {
		m.hist[i] = make([]string, viewHistory)
		m.lastSeq[i] = map[gcs.RingID]uint64{}
	}
	if m.now == nil {
		start := time.Now()
		m.now = func() time.Duration { return time.Since(start) }
	}
	// Counters are resolved once here so the per-event path is a single
	// nil-safe atomic add.
	reg := cfg.Metrics
	m.viewsC = reg.Counter("invariant_view_events_total", "engine view installations observed by invariant monitors")
	m.delivC = reg.Counter("invariant_delivery_events_total", "Agreed deliveries observed by invariant monitors")
	m.ownC = reg.Counter("invariant_ownership_events_total", "ownership changes observed by invariant monitors")
	m.violC = reg.Counter("invariant_violations_total", "protocol-invariant violations detected")
	// Pre-registered per-oracle so /metrics (and wackactl's invariants
	// line) always exposes every oracle at zero instead of materializing
	// series only after the first trip.
	m.oracleC = make(map[string]*metrics.Counter, len(Oracles))
	for _, o := range Oracles {
		m.oracleC[o] = reg.Counter("invariant_oracle_violations_total",
			"protocol-invariant violations detected, by oracle", metrics.L("oracle", o))
	}
	m.multiG = reg.Gauge("invariant_shard_multi_owner", "VIP-group shards currently claimed by more than one attached node")
	return m
}

// SetNow replaces the violation timestamp source; harnesses point it at
// virtual time once the simulation exists. Call before events flow.
func (m *Monitor) SetNow(now func() time.Duration) {
	if m == nil || now == nil {
		return
	}
	m.mu.Lock()
	m.now = now
	m.mu.Unlock()
}

// Attach installs the monitor's observation hooks on node slot i. Call
// after the node is built and before it starts, so no boot event is
// missed; wackamole.ClusterOptions.Invariants does exactly that for every
// simulated server.
func (m *Monitor) Attach(i int, n Node) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.selfs[i] = n.Member()
	m.mu.Unlock()
	n.Engine().AddViewHook(func(v core.View) { m.onView(i, v) })
	n.Engine().AddOwnershipHook(func(g string, owned bool, viewID string) {
		m.onOwnership(i, g, owned, viewID)
	})
	n.Daemon().AddDeliveryHandler(func(r gcs.RingID, seq uint64, origin gcs.DaemonID) {
		m.OnDelivery(i, r, seq, origin)
	})
}

// SetStep tags subsequent violations with the schedule step the checker is
// executing; meaningless (and left at zero) outside the checker.
func (m *Monitor) SetStep(step int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.step = step
	m.mu.Unlock()
}

// Violation returns the first oracle failure observed, or nil.
func (m *Monitor) Violation() *Violation {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.violation
}

// Installs totals engine view installations across the attached nodes; the
// convergence oracle uses it to assert membership has stopped changing.
func (m *Monitor) Installs() int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return int(m.installs)
}

// Dropped counts the entries the monitor's bounds have forgotten: view-table
// evictions, view-history overwrites, ring evictions, deliveries that arrive
// behind their ring's origin window, and ownership events for VIP groups
// beyond the shard bound. A verdict is exact while it reads 0; past that, a
// conflict involving a forgotten entry can go unseen.
func (m *Monitor) Dropped() uint64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dropped
}

// Fail records a violation found outside the hook streams (the settled
// checks); the first violation wins, later ones are ignored.
func (m *Monitor) Fail(oracle, format string, args ...any) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.failLocked(oracle, format, args...)
	v := m.takeNewViolationLocked()
	m.mu.Unlock()
	m.report(v)
}

// failLocked records the first violation; later ones are ignored so the
// reported failure is always the earliest observable contradiction.
func (m *Monitor) failLocked(oracle, format string, args ...any) *Violation {
	if m.violation != nil {
		return nil
	}
	m.violation = &Violation{
		Oracle: oracle,
		Detail: fmt.Sprintf(format, args...),
		Step:   m.step,
		At:     m.now(),
	}
	return m.violation
}

// report performs the first-violation side effects outside the monitor
// lock: counter, trace event, callback.
func (m *Monitor) report(v *Violation) {
	if v == nil {
		return
	}
	m.violC.Inc()
	m.oracleC[v.Oracle].Inc()
	if m.cfg.Tracer.Enabled() {
		m.cfg.Tracer.Emit(obs.Event{
			Source: obs.SourceInvariant,
			Kind:   obs.KindInvariantViolation,
			Node:   m.cfg.Name,
			Group:  v.Oracle,
			Detail: v.Detail,
		})
	}
	if m.cfg.OnViolation != nil {
		m.cfg.OnViolation(v)
	}
}

// onView is the engine view hook for node slot i, and the whole view-order
// oracle: the same view ID must always carry the same member list, and node
// i must have installed its views in the same relative order as every other
// node installed their common ones.
func (m *Monitor) onView(i int, v core.View) {
	if m == nil {
		return
	}
	m.viewsC.Inc()
	m.mu.Lock()
	m.installs++
	if prev, ok := m.viewMembers[v.ID]; ok {
		if !sameMembers(prev, v.Members) {
			m.failLocked(oracleViewOrder,
				"view %s installed with diverging member lists: %v vs %v (server %d)",
				v.ID, prev, v.Members, i)
		}
	} else {
		// The hook contract hands each node a fresh member-list copy, so
		// pinning the slice directly allocates nothing here.
		m.rememberViewLocked(v.ID, v.Members)
	}
	// Engines install each view once; a re-observation of the current view
	// is idempotent for ordering purposes and skips the history.
	fresh := v.ID != m.currentView[i].ID
	m.currentView[i] = v
	if fresh {
		m.histAppendLocked(i, v.ID)
		m.orderCheckNodeLocked(i)
	}
	viol := m.takeNewViolationLocked()
	m.mu.Unlock()
	m.report(viol)
}

// OnDelivery is the daemon delivery hook for node slot i: each daemon must
// deliver a ring's sequence numbers in increasing order, and no two
// daemons may attribute the same (ring, seq) to different origins —
// together, prefix consistency of the Agreed total order.
func (m *Monitor) OnDelivery(i int, ring gcs.RingID, seq uint64, origin gcs.DaemonID) {
	if m == nil {
		return
	}
	m.delivC.Inc()
	m.mu.Lock()
	if last, ok := m.lastSeq[i][ring]; ok && seq <= last {
		m.failLocked(oracleDeliveryOrder,
			"server %d delivered ring %s seq %d after seq %d", i, ring, seq, last)
	}
	m.lastSeq[i][ring] = seq
	rs := m.rings[ring]
	if rs == nil {
		rs = m.addRingLocked(ring)
	}
	m.ringTick++
	rs.touch = m.ringTick
	slot := &rs.window[seq%originWindow]
	switch {
	case slot.set && slot.seq == seq:
		if slot.origin != origin {
			m.failLocked(oracleDeliveryOrder,
				"ring %s seq %d delivered from origin %s at server %d but %s elsewhere",
				ring, seq, origin, i, slot.origin)
		}
	case !slot.set || seq > slot.seq:
		slot.seq, slot.origin, slot.set = seq, origin, true
	default:
		// seq fell behind the window: its slot now holds a newer seq, so
		// there is nothing left to compare it against.
		m.dropped++
	}
	viol := m.takeNewViolationLocked()
	m.mu.Unlock()
	m.report(viol)
}

// onOwnership is the engine ownership hook for node slot i: the online
// half of the foreign-claim oracle — an engine may only acquire while it
// is a member of its installed view — plus per-shard claim upkeep.
func (m *Monitor) onOwnership(i int, group string, owned bool, viewID string) {
	if m == nil {
		return
	}
	m.ownC.Inc()
	m.mu.Lock()
	m.trackShardLocked(i, group, owned)
	if !owned {
		m.mu.Unlock()
		return
	}
	m.trackChurnLocked(i, group, viewID)
	v := m.currentView[i]
	if v.ID == "" || v.ID != viewID {
		m.failLocked(oracleForeignClaim,
			"server %d acquired %s under view %q but last installed view is %q",
			i, group, viewID, v.ID)
	} else {
		self := m.selfs[i]
		member := false
		for _, mm := range v.Members {
			if mm == self {
				member = true
				break
			}
		}
		if !member {
			m.failLocked(oracleForeignClaim,
				"server %d acquired %s outside its view %s (members %v)", i, group, v.ID, v.Members)
		}
	}
	viol := m.takeNewViolationLocked()
	m.mu.Unlock()
	m.report(viol)
}

// orderCheckNodeLocked runs the pairwise order check between node i and
// every other node over the bounded histories, allocation-free.
func (m *Monitor) orderCheckNodeLocked(i int) {
	for j := 0; j < m.cfg.Nodes; j++ {
		if j == i {
			continue
		}
		a, b := i, j
		if b < a {
			a, b = b, a
		}
		if m.pairOrderLocked(a, b); m.violation != nil {
			return
		}
	}
}

// pairOrderLocked checks one node pair: walk b's retained history and
// demand that the positions (in a's history) of their common views are
// strictly increasing.
func (m *Monitor) pairOrderLocked(a, b int) {
	lastPos := -1
	var lastID string
	for bi := 0; bi < m.histLen[b]; bi++ {
		id := m.histAtLocked(b, bi)
		p := -1
		for ai := m.histLen[a] - 1; ai >= 0; ai-- {
			if m.histAtLocked(a, ai) == id {
				p = ai
				break
			}
		}
		if p < 0 {
			continue
		}
		if p <= lastPos {
			m.failLocked(oracleViewOrder,
				"servers %d and %d installed views %s and %s in opposite orders",
				a, b, lastID, id)
			return
		}
		lastPos, lastID = p, id
	}
}

func (m *Monitor) histAtLocked(n, k int) string {
	h := m.hist[n]
	return h[(m.histStart[n]+k)%len(h)]
}

func (m *Monitor) histAppendLocked(i int, id string) {
	h := m.hist[i]
	if m.histLen[i] < len(h) {
		h[(m.histStart[i]+m.histLen[i])%len(h)] = id
		m.histLen[i]++
	} else {
		h[m.histStart[i]] = id
		m.histStart[i] = (m.histStart[i] + 1) % len(h)
		m.dropped++
	}
}

// rememberViewLocked pins a view's member list, evicting the oldest pinned
// view once maxViews are retained.
func (m *Monitor) rememberViewLocked(id string, members []core.MemberID) {
	if len(m.viewEvict) < cap(m.viewEvict) {
		m.viewEvict = append(m.viewEvict, id)
	} else {
		delete(m.viewMembers, m.viewEvict[m.viewEvictPos])
		m.viewEvict[m.viewEvictPos] = id
		m.viewEvictPos = (m.viewEvictPos + 1) % len(m.viewEvict)
		m.dropped++
	}
	m.viewMembers[id] = members
}

// addRingLocked creates a ring's origin window, evicting the least
// recently delivering ring beyond maxRings.
func (m *Monitor) addRingLocked(ring gcs.RingID) *ringState {
	if len(m.rings) >= maxRings {
		var oldest gcs.RingID
		var oldestTouch uint64
		first := true
		for id, rs := range m.rings {
			if first || rs.touch < oldestTouch {
				oldest, oldestTouch, first = id, rs.touch, false
			}
		}
		delete(m.rings, oldest)
		m.dropped++
	}
	rs := &ringState{window: make([]originSlot, originWindow)}
	m.rings[ring] = rs
	return rs
}

// registerShardLocked allocates claim state for a VIP group seen for the
// first time.
func (m *Monitor) registerShardLocked(name string) int {
	idx := len(m.shardNames)
	m.shardIdx[name] = idx
	m.shardNames = append(m.shardNames, name)
	m.shardClaims = append(m.shardClaims, make([]bool, m.cfg.Nodes))
	m.shardCount = append(m.shardCount, 0)
	m.lastOwner = append(m.lastOwner, -1)
	m.lastMovedView = append(m.lastMovedView, "")
	if m.cfg.PingPongBound > 0 {
		m.claimTimes = append(m.claimTimes, make([]time.Duration, m.cfg.PingPongBound+1))
		m.claimHead = append(m.claimHead, 0)
		m.claimLen = append(m.claimLen, 0)
	}
	return idx
}

// trackShardLocked maintains the per-shard claim bitmaps and the
// multi-owner gauge. Transient multi-ownership is legitimate during
// partitions and handoffs, so it is surfaced as a gauge rather than a
// violation; the settled exactly-once check is the hard oracle.
func (m *Monitor) trackShardLocked(i int, group string, owned bool) {
	idx, ok := m.shardIdx[group]
	if !ok {
		if len(m.shardNames) >= maxShards {
			m.dropped++
			return
		}
		idx = m.registerShardLocked(group)
	}
	claims := m.shardClaims[idx]
	if claims[i] == owned {
		return
	}
	claims[i] = owned
	before := m.shardCount[idx]
	if owned {
		m.shardCount[idx]++
		if m.cfg.PingPongBound > 0 {
			m.recordClaimLocked(idx)
		}
	} else {
		m.shardCount[idx]--
	}
	after := m.shardCount[idx]
	if before <= 1 && after > 1 {
		m.multiOwner++
		m.multiG.Set(int64(m.multiOwner))
	} else if before > 1 && after <= 1 {
		m.multiOwner--
		m.multiG.Set(int64(m.multiOwner))
	}
}

// recordClaimLocked feeds one claim (false→true ownership transition) into
// the shard's timestamp ring and trips the ping-pong oracle when the ring —
// PingPongBound+1 claims — fits inside PingPongWindow: more re-claims than
// the bound allows, the ownership livelock a flapping link induces.
func (m *Monitor) recordClaimLocked(idx int) {
	ring := m.claimTimes[idx]
	now := m.now()
	ring[m.claimHead[idx]] = now
	m.claimHead[idx] = (m.claimHead[idx] + 1) % len(ring)
	if m.claimLen[idx] < len(ring) {
		m.claimLen[idx]++
	}
	if m.claimLen[idx] < len(ring) {
		return
	}
	// Ring full: the next write position holds the oldest retained claim.
	oldest := ring[m.claimHead[idx]]
	if span := now - oldest; span <= m.cfg.PingPongWindow {
		m.failLocked(oraclePingPong,
			"group %s claimed %d times within %v (bound %d per %v) — ownership ping-pong",
			m.shardNames[idx], len(ring), span, m.cfg.PingPongBound, m.cfg.PingPongWindow)
	}
}

// ArmChurn arms (or re-arms) the churn oracle with a fresh bound: from now
// on, any single view relocating more than bound VIP groups between live
// owners trips the oracle. Per-view relocation counts accumulated before
// arming are discarded — rolling-restart harnesses arm after the cluster
// has settled, so formation churn never counts against the bound — while
// the per-shard owner history is retained. Zero or negative disarms.
func (m *Monitor) ArmChurn(bound int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.churnBound = bound
	m.churnViews = [churnViewWindow]churnView{}
	m.churnViewPos = 0
	// The per-view dedup marks restart with the tallies (a shard that moved
	// before arming may legitimately move once more in the same view); only
	// the owner history itself survives.
	for i := range m.lastMovedView {
		m.lastMovedView[i] = ""
	}
	m.mu.Unlock()
}

// trackChurnLocked feeds one acquisition into the churn oracle: a
// relocation is an acquire of a group last acquired by a different node.
// Each shard counts at most once per view (a re-claim inside one view is
// ping-pong, not placement churn), and the count is kept per view so the
// bound applies to a single reconfiguration, not a whole run.
func (m *Monitor) trackChurnLocked(i int, group, viewID string) {
	idx, ok := m.shardIdx[group]
	if !ok {
		return
	}
	prev := m.lastOwner[idx]
	m.lastOwner[idx] = i
	if prev < 0 || prev == i || viewID == "" {
		return
	}
	if m.lastMovedView[idx] == viewID {
		return
	}
	m.lastMovedView[idx] = viewID
	moves := m.bumpChurnViewLocked(viewID)
	if m.churnBound > 0 && moves > m.churnBound {
		m.failLocked(oracleChurn,
			"view %s relocated %d VIP groups (bound %d): %s moved from server %d to server %d",
			viewID, moves, m.churnBound, group, prev, i)
	}
}

// bumpChurnViewLocked increments viewID's relocation count, recycling the
// ring slot after the oldest view when the window is full.
func (m *Monitor) bumpChurnViewLocked(viewID string) int {
	for k := range m.churnViews {
		if m.churnViews[k].id == viewID {
			m.churnViews[k].moves++
			return m.churnViews[k].moves
		}
	}
	m.churnViews[m.churnViewPos] = churnView{id: viewID, moves: 1}
	m.churnViewPos = (m.churnViewPos + 1) % churnViewWindow
	return 1
}

// OnFalseSuspicion records that node slot i declared peer failed while
// ground truth — judged by the caller, which knows whether the peer's host
// was alive, its interface up and both sides in the same partition — says
// the peer was reachable. Trips the false-suspect oracle once more than
// FalseSuspectBound false detections accumulate across all attached nodes.
func (m *Monitor) OnFalseSuspicion(i int, peer string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if m.cfg.FalseSuspectBound <= 0 {
		m.mu.Unlock()
		return
	}
	m.falseSuspects++
	if m.falseSuspects > m.cfg.FalseSuspectBound {
		m.failLocked(oracleFalseSuspect,
			"server %d falsely declared %s failed (%d false detections exceed bound %d)",
			i, peer, m.falseSuspects, m.cfg.FalseSuspectBound)
	}
	viol := m.takeNewViolationLocked()
	m.mu.Unlock()
	m.report(viol)
}

// takeNewViolationLocked hands the violation to the caller exactly once
// for side-effect reporting.
func (m *Monitor) takeNewViolationLocked() *Violation {
	if m.violation != nil && !m.violationReported {
		m.violationReported = true
		return m.violation
	}
	return nil
}

func sameMembers(a, b []core.MemberID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
