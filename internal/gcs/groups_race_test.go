package gcs_test

// Tests for the group layer's synchronization corner cases: joins, leaves
// and casts racing daemon-level membership changes must replay correctly
// after the groups-state exchange (the paper's daemons synchronize group
// state after every configuration change).

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"wackamole/internal/gcs"
	"wackamole/internal/netsim"
)

func TestJoinRacingDaemonReconfiguration(t *testing.T) {
	c := newCluster(t, 131, 3, gcs.TunedConfig())
	a := c.connectClient(0, "w", "wack")
	b := c.connectClient(1, "w", "wack")
	c.sim.RunFor(5 * time.Second)

	// A fourth daemon boots (forcing a reconfiguration) in the same instant
	// a third client joins: the join must survive the membership change.
	c.addDaemon(gcs.TunedConfig(), 3)
	late := c.connectClient(2, "w", "wack")
	c.sim.RunFor(10 * time.Second)

	for name, r := range map[string]*clientRec{"a": a, "b": b, "late": late} {
		v := r.lastView(t)
		if len(v.Members) != 3 {
			t.Fatalf("%s sees %d members after the racing join: %v", name, len(v.Members), v.Members)
		}
	}
	if v := late.lastView(t); !slices.Contains(v.Members, gcs.GroupMember{Daemon: c.daemons[2].ID(), Client: "w"}) {
		t.Fatal("racing join never became effective")
	}
}

func TestLeaveRacingDaemonReconfiguration(t *testing.T) {
	c := newCluster(t, 137, 3, gcs.TunedConfig())
	recs := make([]*clientRec, 3)
	for i := range recs {
		recs[i] = c.connectClient(i, "w", "wack")
	}
	c.sim.RunFor(5 * time.Second)
	// Kill a daemon and gracefully leave from another in the same breath.
	c.hosts[2].NICs()[0].SetUp(false)
	if err := recs[1].sess.Disconnect(); err != nil {
		t.Fatal(err)
	}
	c.sim.RunFor(10 * time.Second)
	v := recs[0].lastView(t)
	if len(v.Members) != 1 || v.Members[0] != (gcs.GroupMember{Daemon: c.daemons[0].ID(), Client: "w"}) {
		t.Fatalf("survivor's view = %v, want itself only", v.Members)
	}
}

func TestCastsBufferedAcrossSyncDeliverInOrder(t *testing.T) {
	c := newCluster(t, 139, 3, gcs.TunedConfig())
	recs := make([]*clientRec, 3)
	for i := range recs {
		recs[i] = c.connectClient(i, "w", "wack")
	}
	c.sim.RunFor(5 * time.Second)
	// Fire casts exactly while a reconfiguration is in flight.
	c.addDaemon(gcs.TunedConfig(), 3)
	c.sim.RunFor(100 * time.Millisecond)
	for i, r := range recs {
		for k := 0; k < 3; k++ {
			if err := r.sess.Multicast("wack", []byte(fmt.Sprintf("mid%d-%d", i, k))); err != nil {
				t.Fatal(err)
			}
		}
	}
	c.sim.RunFor(10 * time.Second)
	// All clients deliver identical sequences containing all 9 casts.
	if len(recs[0].msgs) < 9 {
		t.Fatalf("client 0 delivered %d messages: %v", len(recs[0].msgs), recs[0].msgs)
	}
	for i := 1; i < 3; i++ {
		if len(recs[i].msgs) != len(recs[0].msgs) {
			t.Fatalf("client %d delivered %d, client 0 %d", i, len(recs[i].msgs), len(recs[0].msgs))
		}
		for j := range recs[0].msgs {
			if recs[i].msgs[j] != recs[0].msgs[j] {
				t.Fatalf("order differs at %d", j)
			}
		}
	}
}

func TestViewsDuringRepeatedJoinLeaveChurn(t *testing.T) {
	c := newCluster(t, 149, 2, gcs.TunedConfig())
	stable := c.connectClient(0, "w", "wack")
	c.sim.RunFor(5 * time.Second)
	for round := 0; round < 5; round++ {
		churn := c.connectClient(1, fmt.Sprintf("x%d", round), "wack")
		c.sim.RunFor(time.Second)
		if err := churn.sess.Disconnect(); err != nil {
			t.Fatal(err)
		}
		c.sim.RunFor(time.Second)
	}
	v := stable.lastView(t)
	if len(v.Members) != 1 {
		t.Fatalf("after churn, stable client sees %v", v.Members)
	}
	// Views alternated join/leave: at least 10 view changes beyond the
	// initial one.
	if len(stable.views) < 11 {
		t.Fatalf("saw %d views, want ≥ 11", len(stable.views))
	}
}

func TestGroupMembershipPersistsAcrossPartitionHeal(t *testing.T) {
	c := newCluster(t, 151, 4, gcs.TunedConfig())
	recs := make([]*clientRec, 4)
	for i := range recs {
		recs[i] = c.connectClient(i, "w", "wack")
	}
	c.sim.RunFor(5 * time.Second)
	c.seg.Partition(
		[]*netsim.Host{c.hosts[0], c.hosts[1]},
		[]*netsim.Host{c.hosts[2], c.hosts[3]})
	c.sim.RunFor(8 * time.Second)
	c.seg.Heal()
	c.sim.RunFor(10 * time.Second)
	ref := recs[0].lastView(t)
	if len(ref.Members) != 4 {
		t.Fatalf("post-heal view has %d members", len(ref.Members))
	}
	for i := 1; i < 4; i++ {
		v := recs[i].lastView(t)
		if v.ID != ref.ID || len(v.Members) != 4 {
			t.Fatalf("client %d view %v differs from %v", i, v.ID, ref.ID)
		}
	}
}
