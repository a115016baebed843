package gcs_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"wackamole/internal/gcs"
	"wackamole/internal/netsim"
	"wackamole/internal/sim"
)

func TestThreeWayPartitionAndFullMerge(t *testing.T) {
	c := newCluster(t, 61, 6, gcs.TunedConfig())
	c.sim.RunFor(5 * time.Second)
	c.sameRing([]int{0, 1, 2, 3, 4, 5}, 6)
	c.seg.Partition(
		[]*netsim.Host{c.hosts[0], c.hosts[1]},
		[]*netsim.Host{c.hosts[2], c.hosts[3]},
		[]*netsim.Host{c.hosts[4], c.hosts[5]})
	c.sim.RunFor(10 * time.Second)
	c.sameRing([]int{0, 1}, 2)
	c.sameRing([]int{2, 3}, 2)
	c.sameRing([]int{4, 5}, 2)
	c.seg.Heal()
	c.sim.RunFor(15 * time.Second)
	c.sameRing([]int{0, 1, 2, 3, 4, 5}, 6)
}

func TestBurstBeyondWindowDeliversAllInOrder(t *testing.T) {
	c := newCluster(t, 67, 3, gcs.TunedConfig())
	recs := make([]*clientRec, 3)
	for i := range recs {
		recs[i] = c.connectClient(i, "w", "wack")
	}
	c.sim.RunFor(5 * time.Second)
	const burst = 200 // beyond the default 64-message token window
	for k := 0; k < burst; k++ {
		if err := recs[0].sess.Multicast("wack", []byte(fmt.Sprintf("m%03d", k))); err != nil {
			t.Fatal(err)
		}
	}
	c.sim.RunFor(5 * time.Second)
	for i, r := range recs {
		if len(r.msgs) != burst {
			t.Fatalf("client %d delivered %d of %d", i, len(r.msgs), burst)
		}
		for k, m := range r.msgs {
			if m != fmt.Sprintf("w:m%03d", k) {
				t.Fatalf("client %d out of order at %d: %q", i, k, m)
			}
		}
	}
}

func TestMulticastBeforeFormationIsQueued(t *testing.T) {
	c := newCluster(t, 71, 2, gcs.TunedConfig())
	recs := make([]*clientRec, 2)
	for i := range recs {
		recs[i] = c.connectClient(i, "w", "wack")
	}
	// Cast immediately, before any membership exists.
	if err := recs[0].sess.Multicast("wack", []byte("early")); err != nil {
		t.Fatal(err)
	}
	c.sim.RunFor(5 * time.Second)
	found := false
	for _, m := range recs[1].msgs {
		if m == "w:early" {
			found = true
		}
	}
	if !found {
		t.Fatalf("pre-formation multicast lost: %v", recs[1].msgs)
	}
}

func TestTwoGroupsAreIsolated(t *testing.T) {
	c := newCluster(t, 73, 2, gcs.TunedConfig())
	a := c.connectClient(0, "w", "red")
	b := c.connectClient(1, "w", "blue")
	c.sim.RunFor(5 * time.Second)
	if err := a.sess.Multicast("red", []byte("r")); err != nil {
		t.Fatal(err)
	}
	if err := b.sess.Multicast("blue", []byte("b")); err != nil {
		t.Fatal(err)
	}
	c.sim.RunFor(2 * time.Second)
	if len(a.msgs) != 1 || a.msgs[0] != "w:r" {
		t.Fatalf("red client saw %v", a.msgs)
	}
	if len(b.msgs) != 1 || b.msgs[0] != "w:b" {
		t.Fatalf("blue client saw %v", b.msgs)
	}
	av := a.lastView(t)
	if av.Group != "red" || len(av.Members) != 1 {
		t.Fatalf("red view = %+v", av)
	}
}

func TestClientInTwoGroupsSeesBoth(t *testing.T) {
	c := newCluster(t, 79, 2, gcs.TunedConfig())
	a := c.connectClient(0, "w", "red")
	if err := a.sess.Join("blue"); err != nil {
		t.Fatal(err)
	}
	b := c.connectClient(1, "w", "blue")
	c.sim.RunFor(5 * time.Second)
	if err := b.sess.Multicast("blue", []byte("to-blue")); err != nil {
		t.Fatal(err)
	}
	c.sim.RunFor(2 * time.Second)
	found := false
	for _, m := range a.msgs {
		if m == "w:to-blue" {
			found = true
		}
	}
	if !found {
		t.Fatalf("dual-group client missed blue traffic: %v", a.msgs)
	}
	// Both memberships are in effect: the last view of each group holds a.
	self := gcs.GroupMember{Daemon: c.daemons[0].ID(), Client: "w"}
	last := map[string]gcs.View{}
	for _, v := range a.views {
		last[v.Group] = v
	}
	for _, group := range []string{"red", "blue"} {
		if !slices.Contains(last[group].Members, self) {
			t.Fatalf("%s view %v leaves out the dual-group client", group, last[group].Members)
		}
	}
}

func TestDaemonStopSeversItsSessions(t *testing.T) {
	c := newCluster(t, 83, 2, gcs.TunedConfig())
	recs := make([]*clientRec, 2)
	for i := range recs {
		recs[i] = c.connectClient(i, "w", "wack")
	}
	c.sim.RunFor(5 * time.Second)
	c.daemons[1].Stop()
	if !recs[1].disc {
		t.Fatal("session survived daemon stop")
	}
}

func TestReconnectAfterSeverReusesName(t *testing.T) {
	c := newCluster(t, 89, 2, gcs.TunedConfig())
	recs := make([]*clientRec, 2)
	for i := range recs {
		recs[i] = c.connectClient(i, "w", "wack")
	}
	c.sim.RunFor(5 * time.Second)
	recs[0].sess.Sever()
	c.sim.RunFor(time.Second)
	sess, err := c.daemons[0].Connect("w")
	if err != nil {
		t.Fatalf("reconnect with the same name: %v", err)
	}
	var views []gcs.View
	sess.SetViewHandler(func(v gcs.View) { views = append(views, v) })
	if err := sess.Join("wack"); err != nil {
		t.Fatal(err)
	}
	c.sim.RunFor(2 * time.Second)
	if len(views) == 0 || len(views[len(views)-1].Members) != 2 {
		t.Fatalf("rejoined member got views %v", views)
	}
}

func TestMembershipHandlerFiresPerInstall(t *testing.T) {
	c := newCluster(t, 97, 3, gcs.TunedConfig())
	installs := 0
	c.daemons[0].SetMembershipHandler(func(_ gcs.RingID, _ []gcs.DaemonID) { installs++ })
	c.sim.RunFor(5 * time.Second)
	if installs != 1 {
		t.Fatalf("boot produced %d installs at daemon 0, want 1", installs)
	}
	c.hosts[2].NICs()[0].SetUp(false)
	c.sim.RunFor(10 * time.Second)
	if installs != 2 {
		t.Fatalf("fault produced %d installs in total, want 2", installs)
	}
}

func TestHighLatencySegmentStillConverges(t *testing.T) {
	s := sim.New(101)
	nw := netsim.New(s)
	segCfg := netsim.SegmentConfig{LatencyMin: 10 * time.Millisecond, LatencyMax: 40 * time.Millisecond}
	seg := nw.NewSegment("slow", segCfg)
	c := &cluster{t: t, sim: s, nw: nw, seg: seg}
	for i := 0; i < 4; i++ {
		c.addDaemon(gcs.TunedConfig(), i)
	}
	c.sim.RunFor(15 * time.Second)
	c.sameRing([]int{0, 1, 2, 3}, 4)
	recs := make([]*clientRec, 4)
	for i := range recs {
		recs[i] = c.connectClient(i, "w", "wack")
	}
	c.sim.RunFor(10 * time.Second)
	for i, r := range recs {
		if len(r.views) == 0 {
			t.Fatalf("client %d got no view on the slow segment", i)
		}
	}
}

func TestIsolatedDaemonFormsSingletonAndRejoins(t *testing.T) {
	c := newCluster(t, 103, 3, gcs.TunedConfig())
	c.sim.RunFor(5 * time.Second)
	c.seg.Partition(
		[]*netsim.Host{c.hosts[0], c.hosts[1]},
		[]*netsim.Host{c.hosts[2]})
	c.sim.RunFor(10 * time.Second)
	c.sameRing([]int{2}, 1)
	c.sameRing([]int{0, 1}, 2)
	c.seg.Heal()
	c.sim.RunFor(15 * time.Second)
	c.sameRing([]int{0, 1, 2}, 3)
}

func TestGracefulDaemonLeaveSkipsFaultDetection(t *testing.T) {
	cfg := gcs.TunedConfig()
	c := newCluster(t, 107, 4, cfg)
	c.sim.RunFor(5 * time.Second)
	c.sameRing([]int{0, 1, 2, 3}, 4)

	var installedAt time.Duration
	c.daemons[0].SetMembershipHandler(func(_ gcs.RingID, members []gcs.DaemonID) {
		if len(members) == 3 && installedAt == 0 {
			installedAt = c.sim.Elapsed()
		}
	})
	leaveAt := c.sim.Elapsed()
	c.daemons[3].Leave()
	c.sim.RunFor(10 * time.Second)
	c.sameRing([]int{0, 1, 2}, 3)
	if installedAt == 0 {
		t.Fatal("survivors never reconfigured")
	}
	// A graceful leave needs only the discovery round — well below the
	// fault-detection path (T + D).
	took := installedAt - leaveAt
	if took > cfg.DiscoveryTimeout+500*time.Millisecond {
		t.Fatalf("graceful daemon leave took %v, want ≈ discovery %v", took, cfg.DiscoveryTimeout)
	}
	if took >= cfg.FaultDetectTimeout+cfg.DiscoveryTimeout {
		t.Fatalf("graceful leave (%v) as slow as fault detection", took)
	}
}

func TestLeaveOnSingletonJustStops(t *testing.T) {
	c := newCluster(t, 109, 1, gcs.TunedConfig())
	c.sim.RunFor(3 * time.Second)
	c.daemons[0].Leave() // must not panic or broadcast to anyone
}

func TestMulticastPayloadLimit(t *testing.T) {
	c := newCluster(t, 113, 1, gcs.TunedConfig())
	sess, err := c.daemons[0].Connect("w")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Multicast("g", make([]byte, gcs.MaxPayload+1)); err == nil {
		t.Fatal("oversized payload accepted")
	}
	if err := sess.Multicast("g", make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
}

func TestMulticastBackpressure(t *testing.T) {
	c := newCluster(t, 127, 1, gcs.TunedConfig())
	sess, err := c.daemons[0].Connect("w")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Join("g"); err != nil {
		t.Fatal(err)
	}
	// Without running the simulator, the token never drains the queue.
	overflowed := false
	for i := 0; i < 10000; i++ {
		if err := sess.Multicast("g", []byte("x")); err != nil {
			overflowed = true
			break
		}
	}
	if !overflowed {
		t.Fatal("no backpressure after 10000 undrained multicasts")
	}
	// Draining the ring restores acceptance.
	c.sim.RunFor(30 * time.Second)
	if err := sess.Multicast("g", []byte("x")); err != nil {
		t.Fatalf("multicast still rejected after draining: %v", err)
	}
}
