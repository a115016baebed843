package gcs

// White-box protocol tests: drive a daemon's message handlers directly with
// crafted inputs to pin the defensive branches that normal operation rarely
// exercises (stale tokens, foreign FORMs, recovery for unknown rings,
// duplicate deliveries).

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"wackamole/internal/netsim"
	"wackamole/internal/sim"
)

// wbCluster builds n daemons on a LAN and returns them with the simulator,
// keeping package-internal access to their state.
func wbCluster(t *testing.T, seed int64, n int, cfg Config) (*sim.Sim, []*Daemon, []*netsim.Host) {
	t.Helper()
	s := sim.New(seed)
	nw := netsim.New(s)
	seg := nw.NewSegment("lan", netsim.DefaultSegmentConfig())
	var daemons []*Daemon
	var hosts []*netsim.Host
	for i := 0; i < n; i++ {
		h := nw.NewHost(fmt.Sprintf("n%02d", i))
		nic := h.AttachNIC(seg, "eth0", netip.MustParsePrefix(
			netip.AddrFrom4([4]byte{10, 0, 0, byte(10 + i)}).String()+"/24"))
		ep, err := h.OpenEndpoint(nic, 4803)
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDaemon(ep.Env(nil), cfg)
		if err != nil {
			t.Fatal(err)
		}
		d.Start()
		daemons = append(daemons, d)
		hosts = append(hosts, h)
	}
	return s, daemons, hosts
}

func TestStaleTokenIgnored(t *testing.T) {
	s, daemons, _ := wbCluster(t, 1, 2, TunedConfig())
	s.RunFor(5 * time.Second)
	d := daemons[0]
	if d.state != stOperational {
		t.Fatalf("state = %v", d.state)
	}
	before := d.lastTokenSeq
	d.onToken(tokenMsg{Ring: d.ring.id, TokenSeq: 0, Seq: 0}) // ancient
	if d.lastTokenSeq != before {
		t.Fatal("stale token advanced the token sequence")
	}
	d.onToken(tokenMsg{Ring: RingID{Coord: "x", Epoch: 1}, TokenSeq: before + 10, Seq: 0}) // foreign ring
	if d.lastTokenSeq != before {
		t.Fatal("foreign-ring token accepted")
	}
}

func TestFormExcludingSelfIgnored(t *testing.T) {
	s, daemons, _ := wbCluster(t, 2, 2, TunedConfig())
	s.RunFor(5 * time.Second)
	d := daemons[0]
	ringBefore := d.ring.id
	d.onForm(formMsg{
		Round:   d.round + 10,
		Ring:    RingID{Coord: "attacker", Epoch: 99},
		Members: []DaemonID{"someone-else:1"},
	})
	if d.state != stOperational || d.ring.id != ringBefore {
		t.Fatal("a FORM excluding this daemon disturbed it")
	}
}

func TestFormWithHigherRoundWhileOperationalForcesGather(t *testing.T) {
	s, daemons, _ := wbCluster(t, 3, 2, TunedConfig())
	s.RunFor(5 * time.Second)
	d := daemons[0]
	d.onForm(formMsg{
		Round:   d.round + 5,
		Ring:    RingID{Coord: d.id, Epoch: d.maxEpoch + 5},
		Members: []DaemonID{d.id, "phantom:1"},
	})
	if d.state != stGather {
		t.Fatalf("state = %v, want gather after a newer FORM", d.state)
	}
	// The cluster must reconverge on its own afterwards.
	s.RunFor(10 * time.Second)
	if d.state != stOperational || len(d.ring.members) != 2 {
		t.Fatalf("no reconvergence: state=%v members=%v", d.state, d.ring.members)
	}
}

func TestRecoveryMessagesForUnknownRingsIgnored(t *testing.T) {
	s, daemons, _ := wbCluster(t, 4, 2, TunedConfig())
	s.RunFor(5 * time.Second)
	d := daemons[0]
	bogus := RingID{Coord: "bogus:1", Epoch: 77}
	d.onRecoverState(recoverStateMsg{Ring: bogus, Sender: "bogus:1"})
	d.onRecoverData(recoverDataMsg{Ring: bogus, OldRing: bogus})
	d.onRecoverDone(recoverDoneMsg{Ring: bogus, Sender: "bogus:1"})
	if d.state != stOperational {
		t.Fatalf("recovery noise moved the daemon to %v", d.state)
	}
	if len(d.earlyRec) != 0 {
		t.Fatal("operational daemon buffered recovery noise")
	}
}

func TestEarlyRecBufferBounded(t *testing.T) {
	s, daemons, _ := wbCluster(t, 5, 2, TunedConfig())
	s.RunFor(5 * time.Second)
	d := daemons[0]
	d.enterGather("test", 0)
	for i := 0; i < 2*maxEarlyRec; i++ {
		d.onRecoverDone(recoverDoneMsg{Ring: RingID{Coord: "x:1", Epoch: uint64(i)}, Sender: "x:1"})
	}
	if len(d.earlyRec) > maxEarlyRec {
		t.Fatalf("early buffer grew to %d (cap %d)", len(d.earlyRec), maxEarlyRec)
	}
	s.RunFor(10 * time.Second)
	if d.state != stOperational {
		t.Fatalf("daemon stuck in %v after noise", d.state)
	}
}

// TestStashedRecoveryDataOwnsItsPayload: a retransmission decoded in place
// aliases its datagram, which the network recycles once the handler returns.
// One that arrives before its FORM is stashed, so it must keep a copy of its
// own; replayed after the datagram was overwritten, it stores what was sent.
func TestStashedRecoveryDataOwnsItsPayload(t *testing.T) {
	s, daemons, _ := wbCluster(t, 8, 2, TunedConfig())
	s.RunFor(5 * time.Second)
	d := daemons[0]
	d.enterGather("test", 0)
	next := RingID{Coord: d.id, Epoch: d.maxEpoch + 1}
	old, seq := d.ring.id, d.highSeq+1
	datagram := []byte("state")
	d.onRecoverData(recoverDataMsg{Ring: next, OldRing: old, Msg: dataMsg{Ring: old, Seq: seq, Payload: datagram}})
	if len(d.earlyRec) != 1 {
		t.Fatalf("%d stashed, want the retransmission", len(d.earlyRec))
	}
	copy(datagram, "XXXXX")
	// The FORM has arrived; the other member's state has not, so recovery
	// waits once the stashed retransmission is stored.
	d.old = oldRing{ring: ringInfo{id: old}, store: d.store}
	d.rec = &recovery{form: formMsg{Ring: next, Members: d.ring.members}, have: make([]bool, len(d.ring.members))}
	d.earlyRec[0](d)
	if m, ok := d.old.store[seq]; !ok || string(m.Payload) != "state" {
		t.Fatalf("stored retransmission %v, want payload %q", m, "state")
	}
}

func TestAliveFromUnknownDaemonTriggersGather(t *testing.T) {
	s, daemons, _ := wbCluster(t, 6, 2, TunedConfig())
	s.RunFor(5 * time.Second)
	d := daemons[0]
	d.onAlive(aliveMsg{Ring: RingID{Coord: "other:1", Epoch: 3}, Sender: "other:1"})
	if d.state != stGather {
		t.Fatalf("foreign ALIVE left the daemon %v", d.state)
	}
	s.RunFor(10 * time.Second)
	if d.state != stOperational {
		t.Fatal("no reconvergence after the foreign ALIVE")
	}
}

func TestAliveFromMemberOnStaleRingIgnored(t *testing.T) {
	s, daemons, _ := wbCluster(t, 7, 2, TunedConfig())
	s.RunFor(5 * time.Second)
	d := daemons[0]
	peer := d.ring.members[1]
	if peer == d.id {
		peer = d.ring.members[0]
	}
	d.onAlive(aliveMsg{Ring: RingID{Coord: d.id, Epoch: d.ring.id.Epoch - 1}, Sender: peer})
	if d.state != stOperational {
		t.Fatalf("stale-ring ALIVE from a member moved the daemon to %v", d.state)
	}
}

func TestTokenLossWatchdogRegathers(t *testing.T) {
	s, daemons, hosts := wbCluster(t, 8, 2, TunedConfig())
	s.RunFor(5 * time.Second)
	_ = hosts
	d := daemons[0]
	installsBefore := d.stats.membershipsInstalled.Load()
	// Simulate a lost token: make every daemon treat arriving tokens as
	// stale duplicates (and cancel pending forwards), so circulation dies
	// while heartbeats keep flowing — only the token-loss watchdog can
	// notice. lastTokenSeq resets at the next install.
	for _, dd := range daemons {
		dd.lastTokenSeq += 1 << 40
		dd.pendingToken.Stop()
	}
	s.RunFor(10 * time.Second)
	if d.stats.membershipsInstalled.Load() <= installsBefore {
		t.Fatal("token loss never led to a reinstall")
	}
	if d.state != stOperational {
		t.Fatalf("daemon stuck in %v after token loss", d.state)
	}
}

func TestStatsProgress(t *testing.T) {
	s, daemons, hosts := wbCluster(t, 9, 3, TunedConfig())
	sess, err := daemons[0].Connect("w")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Join("g"); err != nil {
		t.Fatal(err)
	}
	s.RunFor(5 * time.Second)
	st := daemons[0].Stats()
	if st.MembershipsInstalled == 0 || st.Reconfigurations == 0 {
		t.Fatalf("membership counters flat: %+v", st)
	}
	if st.TokensForwarded == 0 || st.DataSent == 0 || st.DataDelivered == 0 {
		t.Fatalf("data counters flat: %+v", st)
	}
	hosts[2].NICs()[0].SetUp(false)
	s.RunFor(10 * time.Second)
	st2 := daemons[0].Stats()
	if st2.MembershipsInstalled != st.MembershipsInstalled+1 {
		t.Fatalf("fault did not add exactly one install: %d -> %d",
			st.MembershipsInstalled, st2.MembershipsInstalled)
	}
}

func TestDoubleStopIsSafe(t *testing.T) {
	_, daemons, _ := wbCluster(t, 10, 1, TunedConfig())
	daemons[0].stop()
	daemons[0].stop() // idempotent
	if daemons[0].state.String() == "" {
		t.Fatal("state string empty after stop")
	}
}

func TestJoinHelpsLaggardCatchUp(t *testing.T) {
	s, daemons, _ := wbCluster(t, 11, 2, TunedConfig())
	s.RunFor(5 * time.Second)
	d := daemons[0]
	d.enterGather("test", 0)
	// A laggard JOIN with an old round: the daemon must answer with its
	// current round rather than regather.
	roundBefore := d.round
	d.onJoin(joinMsg{Sender: daemons[1].id, Round: 0, Seen: []DaemonID{daemons[1].id}})
	if d.round != roundBefore {
		t.Fatal("laggard JOIN changed the round")
	}
	s.RunFor(10 * time.Second)
	if d.state != stOperational {
		t.Fatalf("no reconvergence (state %v)", d.state)
	}
}

func TestOldMissingComputation(t *testing.T) {
	d := &Daemon{}
	if got := d.oldMissing(); got != nil {
		t.Fatalf("zero old ring yields %v", got)
	}
	d.old = oldRing{
		ring:    ringInfo{id: RingID{Coord: "a:1", Epoch: 1}},
		store:   map[uint64]*dataMsg{1: {}, 3: {}, 4: {}},
		highSeq: 5,
	}
	got := d.oldMissing()
	want := []uint64{2, 5}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("oldMissing = %v, want %v", got, want)
	}
}

func TestRingInfoHelpers(t *testing.T) {
	r := ringInfo{members: []DaemonID{"a:1", "b:1", "c:1"}}
	if !r.contains("b:1") || r.contains("x:1") {
		t.Fatal("contains wrong")
	}
	if r.successor("a:1") != "b:1" || r.successor("c:1") != "a:1" {
		t.Fatal("successor wrong")
	}
	if r.successor("not-a-member") != "not-a-member" {
		t.Fatal("successor of non-member should be itself")
	}
}

func TestNewDaemonRejectsInvalidConfig(t *testing.T) {
	s := sim.New(12)
	nw := netsim.New(s)
	seg := nw.NewSegment("lan", netsim.DefaultSegmentConfig())
	h := nw.NewHost("x")
	nic := h.AttachNIC(seg, "eth0", netip.MustParsePrefix("10.0.0.10/24"))
	ep, err := h.OpenEndpoint(nic, 4803)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDaemon(ep.Env(nil), Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestLeaveFromStrangerIgnored(t *testing.T) {
	s, daemons, _ := wbCluster(t, 13, 2, TunedConfig())
	s.RunFor(5 * time.Second)
	d := daemons[0]
	installs := d.stats.membershipsInstalled.Load()
	// A LEAVE from a daemon outside the ring, and one for a stale ring,
	// must both be ignored.
	d.onLeave(leaveMsg{Ring: d.ring.id, Sender: "stranger:1"})
	d.onLeave(leaveMsg{Ring: RingID{Coord: d.id, Epoch: 99}, Sender: daemons[1].id})
	d.onLeave(leaveMsg{Ring: d.ring.id, Sender: d.id}) // own echo
	if d.state != stOperational || d.stats.membershipsInstalled.Load() != installs {
		t.Fatalf("bogus LEAVE disturbed the daemon (state %v)", d.state)
	}
}

func TestGarbageGroupsStateLogged(t *testing.T) {
	s, daemons, _ := wbCluster(t, 14, 1, TunedConfig())
	s.RunFor(3 * time.Second)
	d := daemons[0]
	// Inject a corrupt groups-state data message directly: it must be
	// dropped without corrupting the layer.
	d.groups.deliverData(&dataMsg{
		Ring:    d.ring.id,
		Seq:     999,
		Origin:  d.id,
		Kind:    dkGroupsState,
		Payload: []byte{0xFF, 0xFF, 0xFF},
	})
	d.groups.deliverData(&dataMsg{Ring: d.ring.id, Kind: dkGroupJoin, Payload: []byte{0xFF}})
	d.groups.deliverData(&dataMsg{Ring: d.ring.id, Kind: dkGroupCast, Payload: []byte{0xFF}})
	d.groups.deliverData(&dataMsg{Ring: d.ring.id, Kind: dataKind(77), Payload: nil})
	if d.state != stOperational {
		t.Fatalf("garbage group payloads broke the daemon: %v", d.state)
	}
}

// TestInstallFoldsInterruptedPendingOps: membership ops buffered during a
// synchronization that never completed (the ring died first) must not be
// replayed on the next ring — a daemon joining from outside the dead ring
// never received them, so replaying them at the old cohort alone diverges
// the replicated map (two daemons then emit the same view ID with
// different member lists). The install instead folds our OWN clients'
// buffered ops into the session bookkeeping, letting the state transfer
// carry their effect to every member, and discards the buffers. It reads
// them before it hands the dead ring's records back to the free list, which
// is poisoned here: folded after, the own join would read as garbage.
func TestInstallFoldsInterruptedPendingOps(t *testing.T) {
	s, daemons, _ := wbCluster(t, 3, 2, TunedConfig())
	s.RunFor(5 * time.Second)
	d := daemons[0]
	d.PoisonFreedRecords()
	sess, err := d.Connect("c")
	if err != nil {
		t.Fatal(err)
	}
	g := d.groups
	// Simulate a sync interrupted by ring death: unsynced, with a join from
	// our own client, one from a peer and a cast stored and buffered under
	// the ring about to die.
	g.synced = false
	dead := d.ring.id
	for _, m := range []*dataMsg{
		{Ring: dead, Seq: 1001, Origin: d.id, Kind: dkGroupJoin, Payload: appendGroupOp(nil, "c", "web1")},
		{Ring: dead, Seq: 1002, Origin: daemons[1].id, Kind: dkGroupJoin, Payload: appendGroupOp(nil, "other", "web1")},
		{Ring: dead, Seq: 1003, Origin: daemons[1].id, Kind: dkGroupCast},
	} {
		d.store[m.Seq] = m
		g.deliverData(m)
	}
	d.install(formMsg{Round: d.round + 1, Ring: RingID{Coord: d.id, Epoch: d.maxEpoch + 1}, Members: d.ring.members})
	if len(g.pendingOps) != 0 || len(g.pendingCasts) != 0 {
		t.Fatalf("buffers survived the install: ops=%d casts=%d",
			len(g.pendingOps), len(g.pendingCasts))
	}
	if !sess.joined["web1"] {
		t.Fatal("own client's buffered join was not folded into session bookkeeping")
	}
	if g.groups["web1"] != nil {
		t.Fatal("peer's buffered op was applied locally instead of dropped")
	}
}
