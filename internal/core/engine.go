package core

import (
	"fmt"
	"net/netip"
	"slices"
	"sync/atomic"
	"time"

	"wackamole/internal/arp"
	"wackamole/internal/env"
	"wackamole/internal/metrics"
	"wackamole/internal/obs"
	"wackamole/internal/placement"
)

// AddressOwner acquires and releases virtual addresses on the local machine
// (implemented by ipmgr.Manager).
type AddressOwner interface {
	Acquire(a netip.Addr) error
	Release(a netip.Addr) error
}

// Deps are the runtime dependencies handed to an Engine.
type Deps struct {
	// Self is this member's identity within the group.
	Self MemberID
	// Cast multicasts payload to the whole group with Agreed delivery,
	// including self.
	Cast func(payload []byte) error
	// IPs performs the actual address acquisition and release.
	IPs AddressOwner
	// Notify announces ownership changes (ARP spoofing, §5.1). Nil means no
	// notification.
	Notify arp.Notifier
	// Clock schedules the balance and maturity timers.
	Clock env.Clock
	// Log receives diagnostics. Nil means discard.
	Log env.Logger
	// Tracer records the engine's structured events. Nil means no tracing.
	Tracer *obs.Tracer
	// Metrics holds the state-sync and announce-lag histograms and the
	// placement counters. Nil means no measurement.
	Metrics *metrics.Registry
}

// Engine is one server's instance of the Wackamole state-synchronization
// algorithm. Feed it OnView, OnMessage and OnDisconnect from the group
// layer; it keeps the local machine's virtual address set in line with the
// replicated allocation table.
type Engine struct {
	cfg  Config
	deps Deps

	state  State
	mature bool
	view   View
	// selfPos is this member's position in view.Members; -1 while detached.
	selfPos int

	// Inside the engine a VIP group is its index in the canonical name order
	// and a member is its position in the current view; names are the type of
	// the API, the wire and the trace and stop there (DESIGN §5 rule 4).
	// groups and sortedNames are indexed by group; groupIndex is the one
	// string lookup left, made once per name as it comes off the wire or out
	// of a placement plan.
	groups      []VIPGroup
	sortedNames []string
	groupIndex  map[string]int

	// table is current_table: the replicated allocation, by group index, as
	// the owner's position in the current view (-1: uncovered). Identical at
	// every member of the view once GATHER completes (Lemma 1 of the paper).
	// An entry means something only in the view it was written in, so OnView
	// and OnDisconnect clear the table with the view.
	table []int
	// owned is the ground truth of what this node has actually acquired, by
	// group index. It is what STATE_MSGs advertise: after a cascading view
	// change the collected table is discarded and the resent STATE_MSG
	// reflects exactly this set (Algorithm 2, lines 7–9).
	owned []bool

	// Per-view gather bookkeeping, by view position, cleared in place at
	// OnView.
	stateFrom []bool
	matureOf  []bool
	prefsOf   [][]string
	// gatherComplete is set once every member's STATE_MSG arrived; in the
	// representative-decisions variant the engine then waits in GATHER for
	// the representative's ALLOC message.
	gatherComplete bool
	// pendingDrops holds conflict losses awaiting release when
	// LazyConflictRelease is set (ablation of the §3.4 eager-release
	// optimization).
	pendingDrops []int

	// Placement plane: the policy that plans allocations, its reusable
	// scratch, and the last recorded owner of each group, by group index,
	// that attributes placement moves. lastOwner outlives views — unlike the
	// table, which is rebuilt every GATHER — so it holds names ("" before the
	// first assignment), not positions.
	placer        placement.Policy
	planScratch   []placement.Decision
	memberScratch []string
	ownerFn       func(group string) string
	prefersFn     func(member, group string) bool
	lastOwner     []MemberID
	// ownedScratch and loads are castState's and updateSkew's working lists.
	ownedScratch []string
	loads        []int

	balanceTimer env.Timer
	matureTimer  env.Timer

	viewHooks []func(View)
	ownHooks  []func(group string, owned bool, viewID string)
	stats     engineCounters

	// Latency instruments (nil when Deps carries no registry; a nil
	// histogram's Observe is a zero-allocation no-op). gatherStart is
	// observation state for the current GATHER episode.
	mStateSync   *metrics.Histogram
	mAnnounceLag *metrics.Histogram
	mMoves       *metrics.Counter
	mSkew        *metrics.Gauge
	gatherStart  time.Time
}

// Stats counts the engine's address-management actions since Start; the
// experiment harness aggregates them across a cluster to attribute observed
// traffic and interruptions to reallocation activity.
type Stats struct {
	// Acquires and Releases count individual virtual addresses acquired
	// and released (not groups).
	Acquires uint64
	Releases uint64
	// Announces counts ownership-change notifications requested from the
	// notifier (§5.1 ARP spoofing; the notifier may suppress them).
	Announces uint64
	// Moves counts placement moves: transitions of a group's table owner
	// from one member to another (first assignments are takeovers, not
	// moves). Identical at every member of a connected component, because
	// the table transitions are replicated.
	Moves uint64
	// Skew is the current spread between the most and least loaded
	// eligible members (0 with fewer than two eligible members).
	Skew int64
}

// engineCounters are the live counters behind Stats: atomics, because
// Stats() is polled from outside the group-event loop (administrative
// channel, /metrics).
type engineCounters struct {
	acquires  atomic.Uint64
	releases  atomic.Uint64
	announces atomic.Uint64
	moves     atomic.Uint64
	skew      atomic.Int64
}

// Stats returns a snapshot of the engine's activity counters. Unlike the
// rest of the engine's methods it is safe to call from any goroutine.
func (e *Engine) Stats() Stats {
	return Stats{
		Acquires:  e.stats.acquires.Load(),
		Releases:  e.stats.releases.Load(),
		Announces: e.stats.announces.Load(),
		Moves:     e.stats.moves.Load(),
		Skew:      e.stats.skew.Load(),
	}
}

// PlacementName reports the config-directive name of the active placement
// policy. Safe from any goroutine (the policy is fixed at construction).
func (e *Engine) PlacementName() string { return e.placer.Name() }

// trace emits a core-layer event tagged with this member's identity.
func (e *Engine) trace(k obs.Kind, group, addr, detail string) {
	e.deps.Tracer.Emit(obs.Event{Source: obs.SourceCore, Kind: k,
		Node: string(e.deps.Self), Group: group, Addr: addr, Detail: detail})
}

// NewEngine validates the configuration and returns an Engine in the
// detached state. Call Start, then feed it group events.
func NewEngine(cfg Config, deps Deps) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if deps.Self == "" || deps.Cast == nil || deps.IPs == nil || deps.Clock == nil {
		return nil, fmt.Errorf("core: Deps requires Self, Cast, IPs and Clock")
	}
	if deps.Notify == nil {
		deps.Notify = arp.NopNotifier{}
	}
	if deps.Log == nil {
		deps.Log = env.NopLogger{}
	}
	placer := cfg.Placer
	if placer == nil {
		placer = placement.NewLeastLoaded()
	}
	names := cfg.sortedGroupNames()
	e := &Engine{
		cfg:         cfg,
		deps:        deps,
		state:       StateDetached,
		mature:      cfg.StartMature,
		selfPos:     -1,
		groups:      make([]VIPGroup, len(names)),
		sortedNames: names,
		groupIndex:  make(map[string]int, len(names)),
		table:       make([]int, len(names)),
		owned:       make([]bool, len(names)),
		placer:      placer,
		lastOwner:   make([]MemberID, len(names)),
	}
	e.clearTable()
	for gi, name := range names {
		e.groupIndex[name] = gi
	}
	for _, g := range cfg.Groups {
		e.groups[e.groupIndex[g.Name]] = g
	}
	node := metrics.L("node", string(deps.Self))
	e.mStateSync = deps.Metrics.Histogram("core_state_sync_seconds",
		"duration of the GATHER state-synchronization round, from view delivery to entering RUN", node)
	e.mAnnounceLag = deps.Metrics.Histogram("core_announce_lag_seconds",
		"lag from view delivery to the ownership announcement of each address acquired in that round", node)
	e.mMoves = deps.Metrics.Counter("placement_moves_total",
		"VIP groups whose table owner changed from one member to another (reconfiguration churn)", node)
	e.mSkew = deps.Metrics.Gauge("placement_skew",
		"spread between the most and least loaded eligible members of the current view", node)
	// The placement closures are built once: policies read the replicated
	// state through them on every planning call without allocating.
	e.ownerFn = func(g string) string {
		gi, known := e.groupIndex[g]
		if !known {
			return ""
		}
		return string(e.ownerOf(gi))
	}
	e.prefersFn = func(member, g string) bool {
		pos := e.view.indexOf(MemberID(member))
		return pos >= 0 && slices.Contains(e.prefsOf[pos], g)
	}
	return e, nil
}

// ownerOf names the table owner of group gi; "" when uncovered.
func (e *Engine) ownerOf(gi int) MemberID {
	if pos := e.table[gi]; pos >= 0 {
		return e.view.Members[pos]
	}
	return ""
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

// clearTable marks every group uncovered.
func (e *Engine) clearTable() {
	for gi := range e.table {
		e.table[gi] = -1
	}
}

// AddViewHook registers a typed observer that runs once per view the engine
// installs, after the view is recorded but before any STATE_MSG exchange. It
// receives the full membership list (a private copy), which is what protocol
// checkers need to compare installation order across engines. Hooks run in
// registration order, so independent observers coexist; with none registered
// (the default) the engine pays nothing. Call before Start.
func (e *Engine) AddViewHook(h func(View)) { e.viewHooks = append(e.viewHooks, h) }

// AddOwnershipHook registers a typed observer for address-group ownership
// transitions: it runs after every successful acquire (owned=true) and
// release (owned=false) with the ID of the view the engine held at that
// moment (empty when detached). Hooks run in registration order. Call before
// Start.
func (e *Engine) AddOwnershipHook(h func(group string, owned bool, viewID string)) {
	e.ownHooks = append(e.ownHooks, h)
}

// SetNotifier replaces the ownership-change notifier. Applications that
// need the daemon to exist before they can build their notifier (the §5.2
// ARP-cache sharer) install it here after construction; call before Start.
func (e *Engine) SetNotifier(n arp.Notifier) {
	if n == nil {
		n = arp.NopNotifier{}
	}
	e.deps.Notify = n
}

// Start arms the maturity bootstrap (§3.4): a fresh server manages no
// addresses until it meets a mature server or its maturity timeout expires.
func (e *Engine) Start() {
	if e.mature {
		return
	}
	e.matureTimer = e.deps.Clock.AfterFunc(e.cfg.matureTimeout(), e.onMatureTimeout)
}

// Stop cancels the engine's timers. It does not release addresses; use
// OnDisconnect for the full §4.2 teardown.
func (e *Engine) Stop() {
	stopTimer(e.balanceTimer)
	stopTimer(e.matureTimer)
}

func stopTimer(t env.Timer) {
	if t != nil {
		t.Stop()
	}
}

// Snapshot returns a copy of the engine's observable state.
func (e *Engine) Snapshot() Status {
	st := Status{
		State:   e.state,
		Mature:  e.mature,
		ViewID:  e.view.ID,
		Members: append([]MemberID(nil), e.view.Members...),
		Table:   make(map[string]MemberID, len(e.table)),
	}
	for gi, name := range e.sortedNames {
		if e.owned[gi] {
			st.Owned = append(st.Owned, name)
		}
		st.Table[name] = e.ownerOf(gi)
	}
	return st
}

// OnView handles a VIEW_CHANGE event (Algorithm 1 lines 1–4; Algorithm 2
// lines 7–9 when it cascades into an ongoing GATHER). The engine backs up
// its own coverage (the owned set), clears the collected table, multicasts
// its STATE_MSG tagged with the new view, and enters GATHER.
func (e *Engine) OnView(v View) {
	self := v.indexOf(e.deps.Self)
	if self < 0 {
		// A view that excludes us carries no obligations; it can only be a
		// stale delivery racing our own departure.
		return
	}
	// Nothing outside the engine holds view.Members (hooks and Snapshot get
	// copies), so the list is overwritten in place — and everything indexed
	// by its positions goes with it, before a hook can look.
	e.view = View{ID: v.ID, Members: append(e.view.Members[:0], v.Members...)}
	e.selfPos = self
	e.clearTable()
	e.stateFrom = sized(e.stateFrom, len(v.Members))
	e.matureOf = sized(e.matureOf, len(v.Members))
	e.prefsOf = sized(e.prefsOf, len(v.Members))
	e.gatherStart = e.deps.Clock.Now()
	for _, h := range e.viewHooks {
		h(View{ID: v.ID, Members: append([]MemberID(nil), v.Members...)})
	}
	if e.deps.Tracer.Enabled() {
		e.trace(obs.KindViewChange, v.ID, "", fmt.Sprintf("members=%d", len(v.Members)))
	}
	e.setState(stateGather)
	e.pendingDrops = e.pendingDrops[:0]
	e.gatherComplete = false
	stopTimer(e.balanceTimer)
	e.balanceTimer = nil
	e.castState()
}

func (e *Engine) castState() {
	e.ownedScratch = e.ownedScratch[:0]
	for gi, name := range e.sortedNames {
		if e.owned[gi] {
			e.ownedScratch = append(e.ownedScratch, name)
		}
	}
	e.trace(obs.KindStateCast, e.view.ID, "", "")
	msg := stateMsg{ViewID: e.view.ID, Mature: e.mature, Owned: e.ownedScratch, Prefer: e.cfg.Prefer}
	if err := e.deps.Cast(msg.encode()); err != nil {
		e.deps.Log.Logf("wackamole %s: cast state: %v", e.deps.Self, err)
	}
}

// OnMessage consumes one totally ordered group message.
func (e *Engine) OnMessage(from MemberID, payload []byte) {
	m, err := decode(payload)
	if err != nil {
		e.deps.Log.Logf("wackamole %s: drop message from %s: %v", e.deps.Self, from, err)
		return
	}
	switch m.kind {
	case kindState:
		e.onState(from, m.state)
	case kindBalance:
		e.onBalance(from, m.balance)
	case kindAlloc:
		e.onAlloc(from, m.balance)
	case kindMature:
		e.onMature(from, m.mature)
	}
}

// onState implements Algorithm 2 lines 1–6. m aliases the delivered payload:
// names are resolved to group indexes as they are walked and none is kept.
func (e *Engine) onState(from MemberID, m stateView) {
	pos := e.view.indexOf(from)
	if e.state != stateGather || string(m.viewID) != e.view.ID || pos < 0 {
		return // only STATE_MSGs generated in the current view are considered
	}
	e.stateFrom[pos] = true
	e.matureOf[pos] = m.mature
	// A preference for a group nobody configured can never be consulted, so
	// only known names are kept — as the engine's own copies of them.
	e.prefsOf[pos] = e.prefsOf[pos][:0]
	for list := m.prefer; len(list) > 0; {
		var name []byte
		name, list = nextName(list)
		if gi, known := e.groupIndex[string(name)]; known {
			e.prefsOf[pos] = append(e.prefsOf[pos], e.sortedNames[gi])
		}
	}
	e.trace(obs.KindStateRecv, e.view.ID, "", string(from))
	if m.mature && !e.mature {
		// Contact with a mature server matures this one (§3.4).
		e.becomeMature()
	}
	for list := m.owned; len(list) > 0; {
		var name []byte
		name, list = nextName(list)
		gi, known := e.groupIndex[string(name)]
		if !known {
			e.deps.Log.Logf("wackamole %s: %s claims unknown group %q", e.deps.Self, from, string(name))
			continue
		}
		e.claim(gi, pos)
	}
	if slices.Contains(e.stateFrom, false) {
		return
	}
	e.gatherComplete = true
	if e.cfg.LazyConflictRelease {
		for _, gi := range e.pendingDrops {
			if e.owned[gi] && e.table[gi] != e.selfPos {
				e.releaseGroup(gi, "conflict (lazy)")
			}
		}
		e.pendingDrops = e.pendingDrops[:0]
	}
	if e.cfg.RepresentativeDecisions {
		// §4.2 variant: the representative decides; everyone (including the
		// representative, via self-delivery) applies the ALLOC message.
		if e.representative() == e.deps.Self {
			msg := balanceMsg{ViewID: e.view.ID, Alloc: e.computeReallocation()}
			if err := e.deps.Cast(msg.encodeAs(kindAlloc)); err != nil {
				e.deps.Log.Logf("wackamole %s: cast alloc: %v", e.deps.Self, err)
			}
		}
		return
	}
	e.reallocateIPs()
}

// onAlloc applies the representative's imposed allocation and completes
// GATHER (§4.2 variant).
func (e *Engine) onAlloc(from MemberID, m balanceMsg) {
	if !e.cfg.RepresentativeDecisions {
		e.deps.Log.Logf("wackamole %s: alloc from %s but representative decisions are off", e.deps.Self, from)
		return
	}
	if e.state != stateGather || m.ViewID != e.view.ID || !e.gatherComplete {
		return
	}
	if from != e.representative() {
		e.deps.Log.Logf("wackamole %s: alloc from non-representative %s ignored", e.deps.Self, from)
		return
	}
	for _, p := range m.Alloc {
		gi, known := e.groupIndex[p.Group]
		pos := e.view.indexOf(p.Owner)
		if !known || p.Owner != "" && pos < 0 {
			continue
		}
		e.assign(gi, pos, "alloc")
	}
	e.updateSkew()
	if e.deps.Tracer.Enabled() {
		e.trace(obs.KindBalanceApply, e.view.ID, "", "alloc:"+string(from))
	}
	e.setState(StateRun)
	e.armBalance()
	if e.mature && !e.matureOf[e.selfPos] {
		e.castMature()
	}
}

// assign applies one pair of an imposed allocation (ALLOC, BALANCE): the
// table takes the new owner (pos, -1 for none) and this member acquires or
// releases to match.
func (e *Engine) assign(gi, pos int, why string) {
	e.setOwner(gi, pos)
	switch {
	case pos == e.selfPos && !e.owned[gi]:
		e.acquireGroup(gi, why)
	case pos != e.selfPos && e.owned[gi]:
		e.releaseGroup(gi, why)
	}
}

// claim records that the member at view position from covers group gi,
// resolving conflicts deterministically: of two claimants, the one earlier in
// the ordered membership list releases (§3.3). Every member applies the same
// rule to the same message sequence, so the tables stay identical.
func (e *Engine) claim(gi, from int) {
	cur := e.table[gi]
	if cur < 0 || cur == from {
		e.setOwner(gi, from)
		return
	}
	winner, loser := max(from, cur), min(from, cur)
	e.setOwner(gi, winner)
	if loser == e.selfPos && e.owned[gi] {
		if e.cfg.LazyConflictRelease {
			e.pendingDrops = append(e.pendingDrops, gi)
			return
		}
		// Eager release: restore network-level consistency as soon as the
		// conflict is discovered (§3.4).
		e.releaseGroup(gi, "conflict")
	}
}

// reallocateIPs implements Reallocate_IPs(): every member deterministically
// assigns each uncovered group to the least-loaded eligible member and
// acquires the groups assigned to itself, guaranteeing complete coverage
// (Lemma 2 of the paper).
func (e *Engine) reallocateIPs() {
	e.fillHoles(e.placementInput(), "reallocate")
	e.setState(StateRun)
	e.armBalance()
	// A server that matured during GATHER could not advertise it in its
	// STATE_MSG; announce now. With no eligible member this is what lets
	// the component start covering addresses; with eligible members it is
	// the admit path — the announcement makes this server eligible so the
	// next balance can hand it load (runtime join, rolling restart).
	if e.mature && !e.matureOf[e.selfPos] {
		e.castMature()
	}
}

// fillHoles has the placement policy complete the table and acquires what
// that newly gives this member; current owners keep their groups under Fill,
// so there is nothing to release. An owner outside the view — no shipped
// policy names one — has no position and reads as uncovered.
func (e *Engine) fillHoles(in placement.Input, why string) {
	e.planScratch = e.placer.Fill(in, e.planScratch[:0])
	for _, d := range e.planScratch {
		gi, known := e.groupIndex[d.Group]
		if !known {
			continue
		}
		pos := e.view.indexOf(MemberID(d.Owner))
		e.setOwner(gi, pos)
		if pos == e.selfPos && !e.owned[gi] {
			e.acquireGroup(gi, why)
		}
	}
	e.updateSkew()
}

// onBalance implements Change_IPs() (Algorithm 1 lines 5–6); BALANCE_MSGs
// are ignored during GATHER (Algorithm 2 lines 10–11).
func (e *Engine) onBalance(from MemberID, m balanceMsg) {
	if e.state != StateRun || m.ViewID != e.view.ID {
		return
	}
	if from != e.representative() {
		e.deps.Log.Logf("wackamole %s: balance from non-representative %s ignored", e.deps.Self, from)
		return
	}
	for _, p := range m.Alloc {
		gi, known := e.groupIndex[p.Group]
		pos := e.view.indexOf(p.Owner)
		if !known || pos < 0 {
			continue
		}
		e.assign(gi, pos, "balance")
	}
	e.updateSkew()
	e.trace(obs.KindBalanceApply, e.view.ID, "", string(from))
	e.armBalance()
}

// onMature handles a server's announcement that its bootstrap timeout
// expired. Delivered in total order, it makes the whole component eligible
// and triggers the same deterministic reallocation everywhere.
func (e *Engine) onMature(from MemberID, m matureMsg) {
	if e.state != StateRun || m.ViewID != e.view.ID || e.view.indexOf(from) < 0 {
		return
	}
	already := slices.Contains(e.matureOf, true)
	for pos := range e.matureOf {
		e.matureOf[pos] = true
	}
	if !e.mature {
		e.becomeMature()
	}
	if !already {
		e.reallocateUncoveredInRun()
	}
}

// reallocateUncoveredInRun covers holes discovered while already in RUN
// (after a MATURE announcement). The allocation decision is identical at
// every member because it runs on the same delivered message.
func (e *Engine) reallocateUncoveredInRun() {
	in := e.placementInput()
	if len(in.Members) == 0 {
		return
	}
	e.fillHoles(in, "mature")
	e.armBalance()
}

// ResetMaturity returns a detached engine to the immature state and
// re-arms the §3.4 maturity bootstrap, modelling a process restart: a node
// re-admitted through the runtime join path takes no load until it meets a
// mature member (instant, via the first STATE_MSG exchange) or its
// maturity timeout expires. The explicit administrative intent overrides
// StartMature. No-op unless detached — a connected engine's maturity is
// protocol state the group already observed.
func (e *Engine) ResetMaturity() {
	if e.state != StateDetached {
		return
	}
	e.mature = false
	stopTimer(e.matureTimer)
	e.matureTimer = e.deps.Clock.AfterFunc(e.cfg.matureTimeout(), e.onMatureTimeout)
}

func (e *Engine) becomeMature() {
	e.mature = true
	stopTimer(e.matureTimer)
	e.matureTimer = nil
}

func (e *Engine) onMatureTimeout() {
	if e.mature {
		return
	}
	e.becomeMature()
	if e.state == StateRun && !e.matureOf[e.selfPos] {
		e.castMature()
	}
	// If a GATHER is in flight the announcement happens when it completes
	// (see reallocateIPs).
}

func (e *Engine) castMature() {
	if err := e.deps.Cast(matureMsg{ViewID: e.view.ID}.encode()); err != nil {
		e.deps.Log.Logf("wackamole %s: cast mature: %v", e.deps.Self, err)
	}
}

// OnDisconnect implements the §4.2 rule: a Wackamole daemon that loses its
// group-communication connection drops all of its virtual interfaces,
// because it can no longer ensure correctness.
func (e *Engine) OnDisconnect() {
	for gi, held := range e.owned {
		if held {
			e.releaseGroup(gi, "disconnected")
		}
	}
	e.clearTable()
	e.view = View{Members: e.view.Members[:0]}
	e.selfPos = -1
	stopTimer(e.balanceTimer)
	e.balanceTimer = nil
	e.setState(StateDetached)
}

func (e *Engine) setState(s State) {
	if e.state == s {
		return
	}
	e.state = s
	if s == StateRun {
		if !e.gatherStart.IsZero() {
			e.mStateSync.ObserveDuration(e.deps.Clock.Now().Sub(e.gatherStart))
			e.gatherStart = time.Time{}
		}
		e.trace(obs.KindRunEnter, e.view.ID, "", "")
	}
}

func (e *Engine) acquireGroup(gi int, why string) {
	g := e.sortedNames[gi]
	for _, a := range e.groups[gi].Addrs {
		if err := e.deps.IPs.Acquire(a); err != nil {
			e.deps.Log.Logf("wackamole %s: acquire %v (%s): %v", e.deps.Self, a, g, err)
			continue
		}
		e.stats.acquires.Add(1)
		e.stats.announces.Add(1)
		if !e.gatherStart.IsZero() {
			// Acquisitions triggered by the post-gather reallocation carry
			// the client-visible takeover lag since the view change.
			e.mAnnounceLag.ObserveDuration(e.deps.Clock.Now().Sub(e.gatherStart))
		}
		if e.deps.Tracer.Enabled() {
			e.trace(obs.KindAcquire, g, a.String(), why)
			e.trace(obs.KindAnnounce, g, a.String(), "")
		}
		e.deps.Notify.Announce(a)
	}
	e.owned[gi] = true
	for _, h := range e.ownHooks {
		h(g, true, e.view.ID)
	}
}

func (e *Engine) releaseGroup(gi int, why string) {
	g := e.sortedNames[gi]
	for _, a := range e.groups[gi].Addrs {
		if err := e.deps.IPs.Release(a); err != nil {
			e.deps.Log.Logf("wackamole %s: release %v (%s): %v", e.deps.Self, a, g, err)
			continue
		}
		e.stats.releases.Add(1)
		if e.deps.Tracer.Enabled() {
			e.trace(obs.KindRelease, g, a.String(), why)
		}
		e.deps.Notify.Withdraw(a)
	}
	e.owned[gi] = false
	for _, h := range e.ownHooks {
		h(g, false, e.view.ID)
	}
}

// representative returns the member that executes the re-balancing
// procedure: the first of the ordered membership list (§3.4).
func (e *Engine) representative() MemberID {
	if len(e.view.Members) == 0 {
		return ""
	}
	return e.view.Members[0]
}

func (e *Engine) armBalance() {
	stopTimer(e.balanceTimer)
	e.balanceTimer = nil
	if e.cfg.DisableBalance || e.representative() != e.deps.Self {
		return
	}
	viewID := e.view.ID
	e.balanceTimer = e.deps.Clock.AfterFunc(e.cfg.balanceTimeout(), func() {
		if e.state != StateRun || e.view.ID != viewID {
			return
		}
		e.runBalance()
	})
}

// TriggerBalance runs the re-balancing procedure immediately. Only the
// representative, in the RUN state, may trigger it (exposed through the
// administrative channel, §4.2).
func (e *Engine) TriggerBalance() error {
	if e.state != StateRun {
		return fmt.Errorf("core: not in RUN state")
	}
	if e.representative() != e.deps.Self {
		return fmt.Errorf("core: only the representative (%s) may balance", e.representative())
	}
	e.runBalance()
	return nil
}

func (e *Engine) runBalance() {
	alloc, changed := e.balancedAllocation()
	if !changed {
		e.armBalance()
		return
	}
	if e.deps.Tracer.Enabled() {
		e.trace(obs.KindBalanceCast, e.view.ID, "", fmt.Sprintf("moves=%d", len(alloc)))
	}
	msg := balanceMsg{ViewID: e.view.ID, Alloc: alloc}
	if err := e.deps.Cast(msg.encode()); err != nil {
		e.deps.Log.Logf("wackamole %s: cast balance: %v", e.deps.Self, err)
		e.armBalance()
	}
	// The new allocation is applied when the BALANCE_MSG is delivered, at
	// the representative like everywhere else.
}
