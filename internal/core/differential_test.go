package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"wackamole/internal/env"
	"wackamole/internal/placement"
	"wackamole/internal/sim"
)

// model is the engine as it was before its tables went dense: the same
// algorithm over name-keyed maps, a member and a group a string everywhere,
// with no tracing, metrics or logging. Lemma 1 only asks that every member
// compute the same table from the same message sequence; it is indifferent to
// the container, and TestDenseTablesMatchNameKeyedModel holds the engine to
// that by running both on one input.
type model struct {
	cfg    Config
	self   MemberID
	cast   func([]byte) error
	ips    AddressOwner
	clock  env.Clock
	placer placement.Policy

	state  State
	mature bool
	view   View

	table          map[string]MemberID
	owned          map[string]bool
	stateFrom      map[MemberID]bool
	matureOf       map[MemberID]bool
	prefsOf        map[MemberID][]string
	gatherComplete bool
	pendingDrops   []string

	groups    map[string]VIPGroup
	names     []string
	lastOwner map[string]MemberID
	moves     uint64
	skew      int64

	balanceTimer env.Timer
	matureTimer  env.Timer
	viewHook     func(View)
	ownHook      func(group string, owned bool, viewID string)
}

func newModel(cfg Config, self MemberID, placer placement.Policy, cast func([]byte) error, ips AddressOwner, clock env.Clock) *model {
	m := &model{
		cfg: cfg, self: self, cast: cast, ips: ips, clock: clock, placer: placer,
		state: StateDetached, mature: cfg.StartMature,
		table: map[string]MemberID{}, owned: map[string]bool{},
		groups: map[string]VIPGroup{}, names: cfg.sortedGroupNames(),
		lastOwner: map[string]MemberID{},
	}
	for _, g := range cfg.Groups {
		m.groups[g.Name] = g
	}
	return m
}

func (m *model) start() {
	if !m.mature {
		m.matureTimer = m.clock.AfterFunc(m.cfg.matureTimeout(), m.onMatureTimeout)
	}
}

func (m *model) onView(v View) {
	if v.indexOf(m.self) < 0 {
		return
	}
	m.view = View{ID: v.ID, Members: slices.Clone(v.Members)}
	m.viewHook(View{ID: v.ID, Members: slices.Clone(v.Members)})
	m.state = stateGather
	m.table = map[string]MemberID{}
	m.stateFrom = map[MemberID]bool{}
	m.matureOf = map[MemberID]bool{}
	m.prefsOf = map[MemberID][]string{}
	m.pendingDrops = nil
	m.gatherComplete = false
	stopTimer(m.balanceTimer)
	m.balanceTimer = nil
	_ = m.cast(stateMsg{ViewID: m.view.ID, Mature: m.mature, Owned: m.ownedSorted(), Prefer: m.cfg.Prefer}.encode())
}

func (m *model) ownedSorted() []string {
	out := make([]string, 0, len(m.owned))
	for g := range m.owned {
		out = append(out, g)
	}
	sort.Strings(out)
	return out
}

func (m *model) onMessage(from MemberID, payload []byte) {
	if st, ok := refDecodeState(payload); ok {
		m.onState(from, st)
		return
	}
	d, err := decode(payload)
	if err != nil {
		return
	}
	switch d.kind {
	case kindBalance:
		m.onBalance(from, d.balance)
	case kindAlloc:
		m.onAlloc(from, d.balance)
	case kindMature:
		m.onMature(from, d.mature)
	}
}

func (m *model) onState(from MemberID, st stateMsg) {
	if m.state != stateGather || st.ViewID != m.view.ID || m.view.indexOf(from) < 0 {
		return
	}
	m.stateFrom[from] = true
	m.matureOf[from] = st.Mature
	m.prefsOf[from] = st.Prefer
	if st.Mature && !m.mature {
		m.becomeMature()
	}
	for _, g := range st.Owned {
		if _, known := m.groups[g]; known {
			m.claim(g, from)
		}
	}
	for _, member := range m.view.Members {
		if !m.stateFrom[member] {
			return
		}
	}
	m.gatherComplete = true
	if m.cfg.LazyConflictRelease {
		for _, g := range m.pendingDrops {
			if m.owned[g] && m.table[g] != m.self {
				m.release(g)
			}
		}
		m.pendingDrops = nil
	}
	if m.cfg.RepresentativeDecisions {
		if m.representative() == m.self {
			_ = m.cast(balanceMsg{ViewID: m.view.ID, Alloc: m.computeReallocation()}.encodeAs(kindAlloc))
		}
		return
	}
	m.reallocateIPs()
}

func (m *model) onAlloc(from MemberID, b balanceMsg) {
	if !m.cfg.RepresentativeDecisions || m.state != stateGather || b.ViewID != m.view.ID ||
		!m.gatherComplete || from != m.representative() {
		return
	}
	for _, p := range b.Alloc {
		if _, known := m.groups[p.Group]; !known {
			continue
		}
		if p.Owner != "" && m.view.indexOf(p.Owner) < 0 {
			continue
		}
		m.impose(p)
	}
	m.updateSkew()
	m.state = StateRun
	m.armBalance()
	if m.mature && !m.matureOf[m.self] {
		m.castMature()
	}
}

// impose applies one pair of an ALLOC or a BALANCE.
func (m *model) impose(p allocPair) {
	m.table[p.Group] = p.Owner
	m.noteOwner(p.Group, p.Owner)
	switch {
	case p.Owner == m.self && !m.owned[p.Group]:
		m.acquire(p.Group)
	case p.Owner != m.self && m.owned[p.Group]:
		m.release(p.Group)
	}
}

func (m *model) claim(g string, from MemberID) {
	cur := m.table[g]
	if cur == "" || cur == from {
		m.table[g] = from
		m.noteOwner(g, from)
		return
	}
	winner, loser := from, cur
	if m.view.indexOf(from) < m.view.indexOf(cur) {
		winner, loser = cur, from
	}
	m.table[g] = winner
	m.noteOwner(g, winner)
	if loser == m.self && m.owned[g] {
		if m.cfg.LazyConflictRelease {
			m.pendingDrops = append(m.pendingDrops, g)
			return
		}
		m.release(g)
	}
}

func (m *model) reallocateIPs() {
	for _, p := range m.computeReallocation() {
		m.table[p.Group] = p.Owner
		m.noteOwner(p.Group, p.Owner)
		if p.Owner == m.self && !m.owned[p.Group] {
			m.acquire(p.Group)
		}
	}
	m.updateSkew()
	m.state = StateRun
	m.armBalance()
	if m.mature && !m.matureOf[m.self] {
		m.castMature()
	}
}

func (m *model) eligible() []string {
	var out []string
	for _, member := range m.view.Members {
		if m.matureOf[member] {
			out = append(out, string(member))
		}
	}
	return out
}

func (m *model) input() placement.Input {
	return placement.Input{
		Groups:  m.names,
		Members: m.eligible(),
		Owner:   func(g string) string { return string(m.table[g]) },
		Prefers: func(member, g string) bool { return slices.Contains(m.prefsOf[MemberID(member)], g) },
	}
}

func (m *model) computeReallocation() []allocPair {
	return planPairs(m.placer.Fill(m.input(), nil))
}

func (m *model) onBalance(from MemberID, b balanceMsg) {
	if m.state != StateRun || b.ViewID != m.view.ID || from != m.representative() {
		return
	}
	for _, p := range b.Alloc {
		if _, known := m.groups[p.Group]; !known || m.view.indexOf(p.Owner) < 0 {
			continue
		}
		m.impose(p)
	}
	m.updateSkew()
	m.armBalance()
}

func (m *model) onMature(from MemberID, mm matureMsg) {
	if m.state != StateRun || mm.ViewID != m.view.ID || m.view.indexOf(from) < 0 {
		return
	}
	already := len(m.eligible()) > 0
	for _, member := range m.view.Members {
		m.matureOf[member] = true
	}
	if !m.mature {
		m.becomeMature()
	}
	if already {
		return
	}
	for _, p := range m.computeReallocation() {
		m.table[p.Group] = p.Owner
		m.noteOwner(p.Group, p.Owner)
		if p.Owner == m.self && !m.owned[p.Group] {
			m.acquire(p.Group)
		}
	}
	m.updateSkew()
	m.armBalance()
}

func (m *model) becomeMature() {
	m.mature = true
	stopTimer(m.matureTimer)
	m.matureTimer = nil
}

func (m *model) onMatureTimeout() {
	if m.mature {
		return
	}
	m.becomeMature()
	if m.state == StateRun && !m.matureOf[m.self] {
		m.castMature()
	}
}

func (m *model) castMature() { _ = m.cast(matureMsg{ViewID: m.view.ID}.encode()) }

func (m *model) onDisconnect() {
	for _, g := range m.ownedSorted() {
		m.release(g)
	}
	m.table = map[string]MemberID{}
	m.stateFrom = nil
	m.view = View{}
	stopTimer(m.balanceTimer)
	m.balanceTimer = nil
	m.state = StateDetached
}

func (m *model) acquire(g string) {
	for _, a := range m.groups[g].Addrs {
		_ = m.ips.Acquire(a)
	}
	m.owned[g] = true
	m.ownHook(g, true, m.view.ID)
}

func (m *model) release(g string) {
	for _, a := range m.groups[g].Addrs {
		_ = m.ips.Release(a)
	}
	delete(m.owned, g)
	m.ownHook(g, false, m.view.ID)
}

func (m *model) representative() MemberID {
	if len(m.view.Members) == 0 {
		return ""
	}
	return m.view.Members[0]
}

func (m *model) armBalance() {
	stopTimer(m.balanceTimer)
	m.balanceTimer = nil
	if m.cfg.DisableBalance || m.representative() != m.self {
		return
	}
	viewID := m.view.ID
	m.balanceTimer = m.clock.AfterFunc(m.cfg.balanceTimeout(), func() {
		if m.state == StateRun && m.view.ID == viewID {
			m.runBalance()
		}
	})
}

func (m *model) triggerBalance() error {
	if m.state != StateRun || m.representative() != m.self {
		return fmt.Errorf("model: not the representative in RUN")
	}
	m.runBalance()
	return nil
}

func (m *model) runBalance() {
	in := m.input()
	if len(in.Members) == 0 {
		m.armBalance()
		return
	}
	pairs, changed := planPairs(m.placer.Balance(in, nil)), false
	for _, p := range pairs {
		if p.Owner != m.table[p.Group] {
			changed = true
		}
	}
	if !changed {
		m.armBalance()
		return
	}
	_ = m.cast(balanceMsg{ViewID: m.view.ID, Alloc: pairs}.encode())
}

func (m *model) noteOwner(g string, owner MemberID) {
	if owner == "" {
		return
	}
	if prev, seen := m.lastOwner[g]; seen && prev != owner {
		m.moves++
	}
	m.lastOwner[g] = owner
}

func (m *model) updateSkew() {
	counts := map[MemberID]int{}
	for _, owner := range m.table {
		counts[owner]++
	}
	lo, hi, n := 0, 0, 0
	for _, member := range m.view.Members {
		if !m.matureOf[member] {
			continue
		}
		c := counts[member]
		if n == 0 || c < lo {
			lo = c
		}
		if n == 0 || c > hi {
			hi = c
		}
		n++
	}
	m.skew = int64(hi - lo)
}

func (m *model) snapshot() Status {
	st := Status{State: m.state, Mature: m.mature, ViewID: m.view.ID, Table: map[string]MemberID{}}
	st.Members = append(st.Members, m.view.Members...)
	for _, name := range m.names {
		st.Table[name] = m.table[name]
	}
	if len(m.owned) > 0 {
		st.Owned = m.ownedSorted()
	}
	return st
}

// diffSide is everything one of the two implementations did to the world: its
// casts, its address calls, its hook calls.
type diffSide struct {
	sim   *sim.Sim
	casts [][]byte
	calls []string
	owns  []string
	views []View
}

func (s *diffSide) Acquire(a netip.Addr) error {
	s.calls = append(s.calls, "acquire "+a.String())
	return nil
}

func (s *diffSide) Release(a netip.Addr) error {
	s.calls = append(s.calls, "release "+a.String())
	return nil
}

func (s *diffSide) cast(p []byte) error { s.casts = append(s.casts, p); return nil }

func (s *diffSide) ownHook(group string, owned bool, viewID string) {
	s.owns = append(s.owns, fmt.Sprintf("%s %v %s", group, owned, viewID))
}

func (s *diffSide) viewHook(v View) { s.views = append(s.views, v) }

// TestDenseTablesMatchNameKeyedModel drives the engine and the name-keyed
// model with one random input per seed — views that join, drop, reorder and
// exclude members; STATE_MSGs with conflicting claims, unknown groups,
// senders outside the view and stale view IDs; BALANCE, ALLOC and MATURE from
// anybody; the engine's own casts looped back; timers; disconnects — under
// every combination of representative decisions, lazy release, preferences
// and placement policy, and compares everything observable after every step.
func TestDenseTablesMatchNameKeyedModel(t *testing.T) {
	cast := map[kind]int{} // what the engine itself cast, over all seeds
	owns, quiet := 0, 0
	for seed := int64(0); seed < 48; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			side := runDifferential(t, seed)
			for _, p := range side.casts {
				cast[kind(p[2])]++
			}
			owns += len(side.owns)
			if len(side.owns) == 0 {
				quiet++
			}
		})
	}
	// The comparison is only worth what the runs reach: every message kind
	// cast by the engine itself, and addresses changing hands nearly always.
	if cast[kindState] == 0 || cast[kindBalance] == 0 || cast[kindAlloc] == 0 || cast[kindMature] == 0 || owns < 1000 || quiet > 4 {
		t.Fatalf("the runs exercised too little: casts by kind %v, %d ownership changes, %d seeds with none", cast, owns, quiet)
	}
}

func runDifferential(t *testing.T, seed int64) *diffSide {
	const self = MemberID("m2")
	universe := []MemberID{"m0", "m1", "m2", "m3", "m4", "m5"}
	cfg := Config{
		RepresentativeDecisions: seed&1 != 0,
		LazyConflictRelease:     seed&2 != 0,
		StartMature:             seed%3 != 0,
	}
	for i := 0; i < 12; i++ {
		g := VIPGroup{Name: fmt.Sprintf("vip%02d", i), Addrs: []netip.Addr{netip.AddrFrom4([4]byte{10, 0, 1, byte(i + 1)})}}
		if i == 5 {
			g.Addrs = append(g.Addrs, netip.AddrFrom4([4]byte{10, 0, 2, 1}))
		}
		// Configured out of canonical order: the group index is the sorted one.
		cfg.Groups = append([]VIPGroup{g}, cfg.Groups...)
	}
	if seed&4 != 0 {
		cfg.Prefer = []string{"vip03", "vip07"}
	}
	policy := placement.NameLeastLoaded
	if seed&8 != 0 {
		policy = placement.NameMinimal
	}
	newPlacer := func() placement.Policy {
		p, err := placement.New(policy)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	got, want := &diffSide{sim: sim.New(seed)}, &diffSide{sim: sim.New(seed)}
	engineCfg := cfg
	engineCfg.Placer = newPlacer()
	e, err := NewEngine(engineCfg, Deps{Self: self, Cast: got.cast, IPs: got, Clock: got.sim})
	if err != nil {
		t.Fatal(err)
	}
	// Observers may look at the engine from inside a hook; between a view and
	// the table written under the one before, that must not go wrong.
	e.AddOwnershipHook(func(group string, owned bool, viewID string) {
		_ = e.Snapshot()
		got.ownHook(group, owned, viewID)
	})
	e.AddViewHook(func(v View) {
		st := e.Snapshot()
		owners := 0
		for _, o := range st.Table {
			if o != "" {
				owners++
			}
		}
		if st.ViewID != v.ID || owners != 0 {
			t.Fatalf("inside the hook of view %s the engine shows view %s and table %v", v.ID, st.ViewID, st.Table)
		}
		got.viewHook(v)
	})
	m := newModel(cfg, self, newPlacer(), want.cast, want, want.sim)
	m.ownHook, m.viewHook = want.ownHook, want.viewHook
	e.Start()
	m.start()

	rng := rand.New(rand.NewSource(seed))
	// A cluster that boots immature mostly stays so, which is what lets the
	// maturity timeout and the MATURE-triggered reallocation run.
	matureIn10 := 7
	if !cfg.StartMature {
		matureIn10 = 1
	}
	pick := func(ids []MemberID) MemberID { return ids[rng.Intn(len(ids))] }
	viewIDs := []string{"v0"}
	var view []MemberID
	sent := map[MemberID]bool{} // members whose STATE_MSG for the current view went out
	looped := 0                 // own casts delivered back so far
	viewID := func() string {
		if rng.Intn(8) == 0 {
			return viewIDs[rng.Intn(len(viewIDs))]
		}
		return viewIDs[len(viewIDs)-1]
	}
	someGroup := func() string {
		if rng.Intn(12) == 0 {
			return "ghost"
		}
		return fmt.Sprintf("vip%02d", rng.Intn(12))
	}
	someOwner := func() MemberID {
		switch r := rng.Intn(20); {
		case r < 2:
			return ""
		case r < 3:
			return "outsider"
		case r < 6 || len(view) == 0:
			return pick(universe)
		default:
			return pick(view)
		}
	}
	deliver := func(from MemberID, payload []byte) string {
		e.OnMessage(from, payload)
		m.onMessage(from, payload)
		return fmt.Sprintf("message %x from %s", payload, from)
	}

	for step := 0; step < 600; step++ {
		var did string
		switch r := rng.Intn(100); {
		case r < 5:
			view = view[:0]
			for _, id := range universe {
				if id == self && rng.Intn(10) != 0 || id != self && rng.Intn(3) != 0 {
					view = append(view, id)
				}
			}
			if len(view) == 0 {
				view = append(view, pick(universe))
			}
			if rng.Intn(3) == 0 {
				rng.Shuffle(len(view), func(i, j int) { view[i], view[j] = view[j], view[i] })
			}
			viewIDs = append(viewIDs, fmt.Sprintf("v%d", len(viewIDs)))
			clear(sent)
			v := View{ID: viewIDs[len(viewIDs)-1], Members: slices.Clone(view)}
			e.OnView(v)
			m.onView(v)
			did = fmt.Sprintf("view %+v", v)
		case r < 45:
			from := MemberID("outsider")
			switch r := rng.Intn(10); {
			case r < 7:
				for _, id := range view {
					if !sent[id] && id != self {
						from = id
						break
					}
				}
			case r < 9:
				from = pick(universe)
			}
			sent[from] = true
			st := stateMsg{ViewID: viewID(), Mature: rng.Intn(10) < matureIn10}
			for i := rng.Intn(5); i > 0; i-- {
				st.Owned = append(st.Owned, someGroup())
			}
			sort.Strings(st.Owned)
			if rng.Intn(4) == 0 {
				st.Prefer = []string{someGroup(), someGroup()}
			}
			did = deliver(from, st.encode())
		case r < 65:
			if !reflect.DeepEqual(got.casts, want.casts) {
				break // reported below
			}
			if looped < len(got.casts) {
				did = deliver(self, got.casts[looped])
				looped++
			}
		case r < 79:
			// Half of the imposed allocations are what the representative
			// would really send, so that GATHER ends and balances apply; the
			// other half is anything at all.
			b, k := balanceMsg{ViewID: viewID()}, kindBalance
			if rng.Intn(2) == 0 {
				k = kindAlloc
			}
			switch in := m.input(); {
			case rng.Intn(2) == 0:
				for i := rng.Intn(8); i > 0; i-- {
					b.Alloc = append(b.Alloc, allocPair{Group: someGroup(), Owner: someOwner()})
				}
			case k == kindAlloc || len(in.Members) == 0:
				b.Alloc = m.computeReallocation()
			default:
				b.Alloc = planPairs(m.placer.Balance(in, nil))
			}
			from := someOwner()
			if len(view) > 0 && rng.Intn(10) < 7 {
				from = view[0]
			}
			did = deliver(from, b.encodeAs(k))
		case r < 84:
			did = deliver(someOwner(), matureMsg{ViewID: viewID()}.encode())
		case r < 92:
			d := []time.Duration{time.Second, 6 * time.Second, 31 * time.Second}[rng.Intn(3)]
			got.sim.RunFor(d)
			want.sim.RunFor(d)
			did = fmt.Sprintf("advance %v", d)
		case r < 97:
			if (e.TriggerBalance() == nil) != (m.triggerBalance() == nil) {
				t.Fatalf("step %d: TriggerBalance disagrees", step)
			}
			did = "trigger balance"
		default:
			e.OnDisconnect()
			m.onDisconnect()
			did = "disconnect"
		}

		fail := func(what string, g, w any) {
			t.Helper()
			t.Fatalf("step %d (%s): %s\n engine %+v\n model  %+v", step, did, what, g, w)
		}
		if g, w := e.Snapshot(), m.snapshot(); !reflect.DeepEqual(g, w) {
			fail("snapshot", g, w)
		}
		if g := e.Stats(); g.Moves != m.moves || g.Skew != m.skew {
			fail("moves, skew", g, []int64{int64(m.moves), m.skew})
		}
		if !reflect.DeepEqual(got.owns, want.owns) {
			fail("ownership hook calls", got.owns, want.owns)
		}
		if !reflect.DeepEqual(got.views, want.views) {
			fail("view hook calls", got.views, want.views)
		}
		if !reflect.DeepEqual(got.calls, want.calls) {
			fail("acquire/release calls", got.calls, want.calls)
		}
		if len(got.casts) != len(want.casts) {
			fail("casts", len(got.casts), len(want.casts))
		}
		for i := range got.casts {
			if !bytes.Equal(got.casts[i], want.casts[i]) {
				fail(fmt.Sprintf("cast %d", i), got.casts[i], want.casts[i])
			}
		}
	}
	return got
}
