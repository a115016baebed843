package gcs_test

import (
	"fmt"
	"net/netip"
	"slices"
	"testing"
	"time"

	"wackamole/internal/gcs"
	"wackamole/internal/netsim"
	"wackamole/internal/sim"
)

// cluster is a LAN of gcs daemons under one simulator.
type cluster struct {
	t       testing.TB
	sim     *sim.Sim
	nw      *netsim.Network
	seg     *netsim.Segment
	hosts   []*netsim.Host
	daemons []*gcs.Daemon
}

func newCluster(t testing.TB, seed int64, n int, cfg gcs.Config) *cluster {
	t.Helper()
	s := sim.New(seed)
	nw := netsim.New(s)
	seg := nw.NewSegment("lan", netsim.DefaultSegmentConfig())
	c := &cluster{t: t, sim: s, nw: nw, seg: seg}
	for i := 0; i < n; i++ {
		c.addDaemon(cfg, i)
	}
	return c
}

func (c *cluster) addDaemon(cfg gcs.Config, i int) *gcs.Daemon {
	c.t.Helper()
	host := c.nw.NewHost(fmt.Sprintf("n%02d", i+1))
	prefix := netip.MustParsePrefix(fmt.Sprintf("10.0.0.%d/24", i+10))
	nic := host.AttachNIC(c.seg, "eth0", prefix)
	ep, err := host.OpenEndpoint(nic, 4803)
	if err != nil {
		c.t.Fatal(err)
	}
	d, err := gcs.NewDaemon(ep.Env(nil), cfg)
	if err != nil {
		c.t.Fatal(err)
	}
	d.Start()
	c.hosts = append(c.hosts, host)
	c.daemons = append(c.daemons, d)
	return d
}

// poisonFreedRecords turns on every daemon's free-list poisoning: a record
// read after the install that retired it reads as garbage.
func (c *cluster) poisonFreedRecords() {
	for _, d := range c.daemons {
		d.PoisonFreedRecords()
	}
}

// sameRing asserts that all live daemons in idx are operational on one
// installed ring with exactly the expected member count.
func (c *cluster) sameRing(idx []int, wantMembers int) {
	c.t.Helper()
	var ref gcs.RingID
	for k, i := range idx {
		id, members, ok := c.daemons[i].Ring()
		if !ok {
			c.t.Fatalf("daemon %d has no installed ring", i)
		}
		if !c.daemons[i].Operational() {
			c.t.Fatalf("daemon %d is reconfiguring, want operational", i)
		}
		if len(members) != wantMembers {
			c.t.Fatalf("daemon %d sees %d members (%v), want %d", i, len(members), members, wantMembers)
		}
		if k == 0 {
			ref = id
			continue
		}
		if id != ref {
			c.t.Fatalf("daemon %d ring %v != daemon %d ring %v", i, id, idx[0], ref)
		}
	}
}

func TestSingletonDaemonForms(t *testing.T) {
	c := newCluster(t, 1, 1, gcs.TunedConfig())
	c.sim.RunFor(3 * time.Second)
	c.sameRing([]int{0}, 1)
}

func TestClusterForms(t *testing.T) {
	for _, n := range []int{2, 5, 12} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			c := newCluster(t, int64(n), n, gcs.TunedConfig())
			c.sim.RunFor(5 * time.Second)
			idx := make([]int, n)
			for i := range idx {
				idx[i] = i
			}
			c.sameRing(idx, n)
		})
	}
}

func TestClusterFormsWithDefaultTimeouts(t *testing.T) {
	c := newCluster(t, 3, 4, gcs.DefaultConfig())
	c.sim.RunFor(20 * time.Second)
	c.sameRing([]int{0, 1, 2, 3}, 4)
}

func TestFaultDetectionAndReconfiguration(t *testing.T) {
	cfg := gcs.TunedConfig()
	c := newCluster(t, 7, 5, cfg)
	c.sim.RunFor(5 * time.Second)
	c.sameRing([]int{0, 1, 2, 3, 4}, 5)

	var installedAt time.Duration
	c.daemons[1].SetMembershipHandler(func(_ gcs.RingID, members []gcs.DaemonID) {
		if len(members) == 4 {
			installedAt = c.sim.Elapsed()
		}
	})
	faultAt := c.sim.Elapsed()
	c.hosts[4].NICs()[0].SetUp(false)
	c.sim.RunFor(10 * time.Second)
	c.sameRing([]int{0, 1, 2, 3}, 4)

	// Notification time must fall in (T-H, T] + D plus protocol slack
	// (paper §6: 2s to 2.4s for the tuned configuration).
	delay := installedAt - faultAt
	lo := cfg.FaultDetectTimeout - cfg.HeartbeatInterval + cfg.DiscoveryTimeout - 100*time.Millisecond
	hi := cfg.FaultDetectTimeout + cfg.DiscoveryTimeout + 500*time.Millisecond
	if delay < lo || delay > hi {
		t.Fatalf("reconfiguration took %v, want within [%v, %v]", delay, lo, hi)
	}
}

func TestPartitionThenMerge(t *testing.T) {
	c := newCluster(t, 11, 5, gcs.TunedConfig())
	c.sim.RunFor(5 * time.Second)
	c.sameRing([]int{0, 1, 2, 3, 4}, 5)

	sideA := []*netsim.Host{c.hosts[0], c.hosts[1], c.hosts[2]}
	sideB := []*netsim.Host{c.hosts[3], c.hosts[4]}
	c.seg.Partition(sideA, sideB)
	c.sim.RunFor(10 * time.Second)
	c.sameRing([]int{0, 1, 2}, 3)
	c.sameRing([]int{3, 4}, 2)
	ra, _, _ := c.daemons[0].Ring()
	rb, _, _ := c.daemons[3].Ring()
	if ra == rb {
		t.Fatal("both partitions report the same ring id")
	}

	c.seg.Heal()
	c.sim.RunFor(15 * time.Second)
	c.sameRing([]int{0, 1, 2, 3, 4}, 5)
}

func TestCascadedFaults(t *testing.T) {
	c := newCluster(t, 13, 6, gcs.TunedConfig())
	c.sim.RunFor(5 * time.Second)
	// Kill daemons one after another, the second mid-reconfiguration.
	c.hosts[5].NICs()[0].SetUp(false)
	c.sim.RunFor(1500 * time.Millisecond)
	c.hosts[4].NICs()[0].SetUp(false)
	c.sim.RunFor(15 * time.Second)
	c.sameRing([]int{0, 1, 2, 3}, 4)
}

// connectClient attaches a client named name to daemon i and records its
// delivered views and messages.
type clientRec struct {
	sess  *gcs.Session
	views []gcs.View
	msgs  []string
	disc  bool
}

func (c *cluster) connectClient(i int, name, group string) *clientRec {
	c.t.Helper()
	sess, err := c.daemons[i].Connect(name)
	if err != nil {
		c.t.Fatal(err)
	}
	rec := &clientRec{sess: sess}
	sess.SetViewHandler(func(v gcs.View) { rec.views = append(rec.views, v) })
	sess.SetMessageHandler(func(from gcs.GroupMember, _ string, payload []byte) {
		rec.msgs = append(rec.msgs, from.Client+":"+string(payload))
	})
	sess.SetDisconnectHandler(func() { rec.disc = true })
	if err := sess.Join(group); err != nil {
		c.t.Fatal(err)
	}
	return rec
}

func (r *clientRec) lastView(t testing.TB) gcs.View {
	t.Helper()
	if len(r.views) == 0 {
		t.Fatal("client received no views")
	}
	return r.views[len(r.views)-1]
}

func TestGroupJoinDeliversOrderedViews(t *testing.T) {
	c := newCluster(t, 17, 3, gcs.TunedConfig())
	recs := make([]*clientRec, 3)
	for i := range recs {
		recs[i] = c.connectClient(i, "w", "wack")
	}
	c.sim.RunFor(5 * time.Second)
	want := c.daemons[0].ID()
	_ = want
	ref := recs[0].lastView(t)
	if len(ref.Members) != 3 {
		t.Fatalf("view has %d members, want 3: %v", len(ref.Members), ref.Members)
	}
	for i := 1; i < len(ref.Members); i++ {
		if !ref.Members[i-1].Less(ref.Members[i]) {
			t.Fatalf("view members not strictly ordered: %v", ref.Members)
		}
	}
	for i, r := range recs {
		v := r.lastView(t)
		if v.ID != ref.ID {
			t.Fatalf("client %d view id %v != %v", i, v.ID, ref.ID)
		}
		if len(v.Members) != len(ref.Members) {
			t.Fatalf("client %d member count mismatch", i)
		}
		for j := range v.Members {
			if v.Members[j] != ref.Members[j] {
				t.Fatalf("client %d member list differs: %v vs %v", i, v.Members, ref.Members)
			}
		}
	}
}

func TestAgreedDeliveryTotalOrder(t *testing.T) {
	c := newCluster(t, 19, 4, gcs.TunedConfig())
	recs := make([]*clientRec, 4)
	for i := range recs {
		recs[i] = c.connectClient(i, "w", "wack")
	}
	c.sim.RunFor(5 * time.Second)
	// Everyone multicasts a burst concurrently.
	for i, r := range recs {
		for k := 0; k < 5; k++ {
			if err := r.sess.Multicast("wack", []byte(fmt.Sprintf("m%d-%d", i, k))); err != nil {
				t.Fatal(err)
			}
		}
	}
	c.sim.RunFor(3 * time.Second)
	if len(recs[0].msgs) != 20 {
		t.Fatalf("client 0 delivered %d messages, want 20: %v", len(recs[0].msgs), recs[0].msgs)
	}
	for i := 1; i < 4; i++ {
		if len(recs[i].msgs) != len(recs[0].msgs) {
			t.Fatalf("client %d delivered %d messages, client 0 delivered %d", i, len(recs[i].msgs), len(recs[0].msgs))
		}
		for j := range recs[0].msgs {
			if recs[i].msgs[j] != recs[0].msgs[j] {
				t.Fatalf("delivery order differs at %d: %q vs %q", j, recs[i].msgs[j], recs[0].msgs[j])
			}
		}
	}
	// Senders must deliver their own messages (the Wackamole proof relies
	// on servers receiving their own state messages).
	found := false
	for _, m := range recs[0].msgs {
		if m == "w:m0-0" {
			found = true
		}
	}
	if !found {
		t.Fatal("sender did not deliver its own multicast")
	}
}

func TestTotalOrderUnderMessageLoss(t *testing.T) {
	s := sim.New(23)
	nw := netsim.New(s)
	segCfg := netsim.DefaultSegmentConfig()
	segCfg.LossRate = 0.03
	seg := nw.NewSegment("lossy", segCfg)
	c := &cluster{t: t, sim: s, nw: nw, seg: seg}
	for i := 0; i < 3; i++ {
		c.addDaemon(gcs.TunedConfig(), i)
	}
	recs := make([]*clientRec, 3)
	for i := range recs {
		recs[i] = c.connectClient(i, "w", "wack")
	}
	c.sim.RunFor(8 * time.Second)
	for i, r := range recs {
		for k := 0; k < 10; k++ {
			if err := r.sess.Multicast("wack", []byte(fmt.Sprintf("m%d-%d", i, k))); err != nil {
				t.Fatal(err)
			}
		}
	}
	c.sim.RunFor(20 * time.Second)
	if len(recs[0].msgs) < 30 {
		t.Fatalf("client 0 delivered %d messages, want >= 30", len(recs[0].msgs))
	}
	for i := 1; i < 3; i++ {
		n := len(recs[0].msgs)
		if len(recs[i].msgs) < n {
			n = len(recs[i].msgs)
		}
		for j := 0; j < n; j++ {
			if recs[i].msgs[j] != recs[0].msgs[j] {
				t.Fatalf("order differs under loss at %d: %q vs %q", j, recs[i].msgs[j], recs[0].msgs[j])
			}
		}
	}
}

func TestGracefulLeaveIsFastAndLightweight(t *testing.T) {
	c := newCluster(t, 29, 4, gcs.TunedConfig())
	recs := make([]*clientRec, 4)
	for i := range recs {
		recs[i] = c.connectClient(i, "w", "wack")
	}
	c.sim.RunFor(5 * time.Second)
	ringBefore, _, _ := c.daemons[0].Ring()
	viewsBefore := len(recs[0].views)

	start := c.sim.Elapsed()
	if err := recs[3].sess.Disconnect(); err != nil {
		t.Fatal(err)
	}
	c.sim.RunFor(200 * time.Millisecond)

	if len(recs[0].views) != viewsBefore+1 {
		t.Fatalf("expected exactly one new view, got %d", len(recs[0].views)-viewsBefore)
	}
	v := recs[0].lastView(t)
	if gone := (gcs.GroupMember{Daemon: c.daemons[3].ID(), Client: "w"}); len(v.Members) != 3 || slices.Contains(v.Members, gone) {
		t.Fatalf("leave view = %+v, want the 3 members other than %v", v, gone)
	}
	// The daemon membership must be untouched: voluntary client departure
	// does not trigger daemon-level reconfiguration (§4.1).
	ringAfter, _, _ := c.daemons[0].Ring()
	if ringAfter != ringBefore {
		t.Fatal("graceful client leave triggered a daemon reconfiguration")
	}
	// And it completes within milliseconds, not at timeout scale.
	elapsed := c.sim.Elapsed() - start
	if elapsed > 200*time.Millisecond {
		t.Fatalf("graceful leave took %v", elapsed)
	}
}

func TestSeveredSessionNotifiesAndLeaves(t *testing.T) {
	c := newCluster(t, 31, 3, gcs.TunedConfig())
	recs := make([]*clientRec, 3)
	for i := range recs {
		recs[i] = c.connectClient(i, "w", "wack")
	}
	c.sim.RunFor(5 * time.Second)
	recs[2].sess.Sever()
	c.sim.RunFor(time.Second)
	if !recs[2].disc {
		t.Fatal("severed session did not fire its disconnect handler")
	}
	v := recs[0].lastView(t)
	if gone := (gcs.GroupMember{Daemon: c.daemons[2].ID(), Client: "w"}); len(v.Members) != 2 || slices.Contains(v.Members, gone) {
		t.Fatalf("survivors' view = %+v, want the 2 members other than %v", v, gone)
	}
}

func TestViewsAfterPartitionShrink(t *testing.T) {
	c := newCluster(t, 37, 5, gcs.TunedConfig())
	recs := make([]*clientRec, 5)
	for i := range recs {
		recs[i] = c.connectClient(i, "w", "wack")
	}
	c.sim.RunFor(5 * time.Second)
	c.seg.Partition(
		[]*netsim.Host{c.hosts[0], c.hosts[1], c.hosts[2]},
		[]*netsim.Host{c.hosts[3], c.hosts[4]})
	c.sim.RunFor(10 * time.Second)
	va := recs[0].lastView(t)
	vb := recs[3].lastView(t)
	if len(va.Members) != 3 {
		t.Fatalf("side A view has %d members: %v", len(va.Members), va.Members)
	}
	if len(vb.Members) != 2 {
		t.Fatalf("side B view has %d members: %v", len(vb.Members), vb.Members)
	}
	// Same-side clients see identical views.
	for i := 1; i < 3; i++ {
		if recs[i].lastView(t).ID != va.ID {
			t.Fatalf("side A client %d view id differs", i)
		}
	}
	if recs[4].lastView(t).ID != vb.ID {
		t.Fatal("side B clients disagree on view id")
	}
}

// TestVirtualSynchronySameDelivery checks the virtual synchrony property the
// Wackamole correctness proof leans on: clients that advance together
// through the same views deliver identical message sequences, even when
// multicasts race a partition.
func TestVirtualSynchronySameDelivery(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c := newCluster(t, 41+seed, 4, gcs.TunedConfig())
			recs := make([]*clientRec, 4)
			for i := range recs {
				recs[i] = c.connectClient(i, "w", "wack")
			}
			c.sim.RunFor(5 * time.Second)
			// Fire multicasts and partition in the same instant.
			for i, r := range recs {
				if err := r.sess.Multicast("wack", []byte(fmt.Sprintf("pre%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			c.sim.RunFor(time.Duration(seed) * time.Millisecond)
			c.seg.Partition(
				[]*netsim.Host{c.hosts[0], c.hosts[1]},
				[]*netsim.Host{c.hosts[2], c.hosts[3]})
			for i, r := range recs {
				if err := r.sess.Multicast("wack", []byte(fmt.Sprintf("post%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			c.sim.RunFor(10 * time.Second)
			// Clients 0,1 advanced together; so did 2,3.
			pairEqual := func(a, b *clientRec) {
				t.Helper()
				if len(a.msgs) != len(b.msgs) {
					t.Fatalf("same-side delivery lengths differ: %v vs %v", a.msgs, b.msgs)
				}
				for i := range a.msgs {
					if a.msgs[i] != b.msgs[i] {
						t.Fatalf("same-side delivery differs at %d: %v vs %v", i, a.msgs, b.msgs)
					}
				}
			}
			pairEqual(recs[0], recs[1])
			pairEqual(recs[2], recs[3])
		})
	}
}

func TestLateDaemonJoinTriggersReconfiguration(t *testing.T) {
	c := newCluster(t, 43, 3, gcs.TunedConfig())
	c.sim.RunFor(5 * time.Second)
	c.sameRing([]int{0, 1, 2}, 3)
	c.addDaemon(gcs.TunedConfig(), 3)
	c.sim.RunFor(10 * time.Second)
	c.sameRing([]int{0, 1, 2, 3}, 4)
}

func TestConnectErrors(t *testing.T) {
	c := newCluster(t, 47, 1, gcs.TunedConfig())
	d := c.daemons[0]
	if _, err := d.Connect(""); err == nil {
		t.Fatal("Connect with empty name succeeded")
	}
	if _, err := d.Connect("w"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Connect("w"); err == nil {
		t.Fatal("duplicate Connect succeeded")
	}
	d.Stop()
	if _, err := d.Connect("x"); err == nil {
		t.Fatal("Connect after Stop succeeded")
	}
}

func TestSessionLifecycleErrors(t *testing.T) {
	c := newCluster(t, 53, 1, gcs.TunedConfig())
	sess, err := c.daemons[0].Connect("w")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Join(""); err == nil {
		t.Fatal("Join with empty group succeeded")
	}
	if err := sess.Disconnect(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Join("g"); err == nil {
		t.Fatal("Join after Disconnect succeeded")
	}
	if err := sess.Multicast("g", nil); err == nil {
		t.Fatal("Multicast after Disconnect succeeded")
	}
	if err := sess.Disconnect(); err == nil {
		t.Fatal("double Disconnect succeeded")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (gcs.Config{}).Validate(); err == nil {
		t.Fatal("zero config validated")
	}
	bad := gcs.DefaultConfig()
	bad.HeartbeatInterval = bad.FaultDetectTimeout
	if err := bad.Validate(); err == nil {
		t.Fatal("heartbeat >= fault-detection validated")
	}
	if err := gcs.DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := gcs.TunedConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTable1ConfigValues(t *testing.T) {
	def, tuned := gcs.DefaultConfig(), gcs.TunedConfig()
	if def.FaultDetectTimeout != 5*time.Second || def.HeartbeatInterval != 2*time.Second || def.DiscoveryTimeout != 7*time.Second {
		t.Fatalf("default config %+v does not match Table 1", def)
	}
	if tuned.FaultDetectTimeout != time.Second || tuned.HeartbeatInterval != 400*time.Millisecond || tuned.DiscoveryTimeout != 1400*time.Millisecond {
		t.Fatalf("tuned config %+v does not match Table 1", tuned)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	trace := func() []string {
		c := newCluster(t, 99, 3, gcs.TunedConfig())
		recs := make([]*clientRec, 3)
		for i := range recs {
			recs[i] = c.connectClient(i, "w", "wack")
		}
		c.sim.RunFor(5 * time.Second)
		for i, r := range recs {
			if err := r.sess.Multicast("wack", []byte(fmt.Sprintf("x%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		c.hosts[2].NICs()[0].SetUp(false)
		c.sim.RunFor(10 * time.Second)
		var out []string
		for _, r := range recs {
			out = append(out, fmt.Sprintf("%v|%d", r.msgs, len(r.views)))
		}
		return out
	}
	a, b := trace(), trace()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic run: %q vs %q", a[i], b[i])
		}
	}
}
