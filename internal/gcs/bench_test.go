package gcs_test

// Micro-benchmarks of the group-communication substrate: message ordering
// throughput through the token ring, membership formation, and
// fault-recovery latency in simulator wall-time.

import (
	"fmt"
	"testing"
	"time"

	"wackamole/internal/gcs"
)

func BenchmarkAgreedMulticastThroughput(b *testing.B) {
	for _, n := range []int{2, 5, 10} {
		n := n
		b.Run(fmt.Sprintf("daemons=%d", n), func(b *testing.B) {
			c := newClusterB(b, 1, n, gcs.TunedConfig())
			sess, err := c.daemons[0].Connect("w")
			if err != nil {
				b.Fatal(err)
			}
			if err := sess.Join("bench"); err != nil {
				b.Fatal(err)
			}
			delivered := 0
			sess.SetMessageHandler(func(gcs.GroupMember, string, []byte) { delivered++ })
			c.sim.RunFor(5 * time.Second)
			payload := make([]byte, 256)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for sess.Multicast("bench", payload) != nil {
					c.sim.RunFor(10 * time.Millisecond) // drain backpressure
				}
				if i%1000 == 999 {
					c.sim.RunFor(time.Second)
				}
			}
			for delivered < b.N {
				c.sim.RunFor(time.Second)
			}
			b.StopTimer()
			if delivered != b.N {
				b.Fatalf("delivered %d of %d", delivered, b.N)
			}
		})
	}
}

func BenchmarkMembershipFormation(b *testing.B) {
	for _, n := range []int{4, 12} {
		n := n
		b.Run(fmt.Sprintf("daemons=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := newClusterB(b, int64(i+1), n, gcs.TunedConfig())
				c.sim.RunFor(5 * time.Second)
				if _, members, ok := c.daemons[0].Ring(); !ok || len(members) != n || !c.daemons[0].Operational() {
					b.Fatal("cluster never formed")
				}
			}
		})
	}
}

func BenchmarkFaultRecovery(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := newClusterB(b, int64(i+1), 5, gcs.TunedConfig())
		c.sim.RunFor(5 * time.Second)
		c.hosts[4].NICs()[0].SetUp(false)
		c.sim.RunFor(5 * time.Second)
		if _, members, _ := c.daemons[0].Ring(); len(members) != 4 {
			b.Fatalf("recovery incomplete: %d members", len(members))
		}
	}
}

// BenchmarkReconfiguration is one membership change and its undoing on a
// long-lived 12-daemon ring with a client on every daemon: each iteration
// fails a NIC and runs until every daemon has installed the ring without it
// (the failed one its ring of one), then restores it and runs until all
// twelve share a ring again. BenchmarkFaultRecovery builds a cluster per
// iteration; here the cluster is built once, so construction does not hide
// what a membership change costs.
func BenchmarkReconfiguration(b *testing.B) {
	const n = 12
	c := newClusterB(b, 1, n, gcs.TunedConfig())
	size := make([]int, n) // members of each daemon's latest install
	for i, d := range c.daemons {
		d.SetMembershipHandler(func(_ gcs.RingID, members []gcs.DaemonID) { size[i] = len(members) })
		sess, err := d.Connect("w")
		if err != nil {
			b.Fatal(err)
		}
		if err := sess.Join("wack"); err != nil {
			b.Fatal(err)
		}
	}
	runUntil := func(done func() bool) {
		for !done() {
			if !c.sim.Step() {
				b.Fatal("the simulation ran dry")
			}
		}
	}
	victim := c.hosts[n-1].NICs()[0]
	split := func() bool {
		for _, m := range size[:n-1] {
			if m != n-1 {
				return false
			}
		}
		return size[n-1] == 1
	}
	merged := func() bool {
		for _, m := range size {
			if m != n {
				return false
			}
		}
		return true
	}
	runUntil(merged)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		victim.SetUp(false)
		runUntil(split)
		victim.SetUp(true)
		runUntil(merged)
	}
}

// newClusterB adapts the test-cluster builder for benchmarks.
func newClusterB(b *testing.B, seed int64, n int, cfg gcs.Config) *cluster {
	b.Helper()
	return newCluster(b, seed, n, cfg)
}
