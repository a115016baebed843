package gcs_test

// Randomized Virtual Synchrony property suite: under arbitrary schedules of
// partitions, heals and racing multicasts, any two clients that end up in
// the same component must have delivered identical message sequences, and
// the cluster must reconverge to one ring (the liveness half).

import (
	"fmt"
	"testing"
	"time"

	"wackamole/internal/gcs"
	"wackamole/internal/netsim"
	"wackamole/internal/sim"
)

func TestVirtualSynchronyUnderRandomChurn(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			const n = 5
			c := newCluster(t, 200+seed, n, gcs.TunedConfig())
			c.poisonFreedRecords()
			recs := make([]*clientRec, n)
			for i := range recs {
				recs[i] = c.connectClient(i, "w", "wack")
			}
			c.sim.RunFor(5 * time.Second)

			rng := sim.New(seed).Rand()
			partitioned := false
			msgID := 0
			for step := 0; step < 10; step++ {
				switch rng.Intn(3) {
				case 0: // burst of casts from random clients
					for k := 0; k < 5; k++ {
						i := rng.Intn(n)
						msgID++
						if err := recs[i].sess.Multicast("wack", []byte(fmt.Sprintf("m%04d", msgID))); err != nil {
							// Backpressure under churn is acceptable.
							continue
						}
					}
				case 1:
					if !partitioned {
						cut := 1 + rng.Intn(n-1)
						var a, b []*netsim.Host
						for i, h := range c.hosts {
							if i < cut {
								a = append(a, h)
							} else {
								b = append(b, h)
							}
						}
						c.seg.Partition(a, b)
						partitioned = true
					}
				case 2:
					if partitioned {
						c.seg.Heal()
						partitioned = false
					}
				}
				c.sim.RunFor(time.Duration(rng.Intn(4000)) * time.Millisecond)
			}
			if partitioned {
				c.seg.Heal()
			}
			c.sim.RunFor(20 * time.Second)

			// Liveness: one ring again.
			idx := make([]int, n)
			for i := range idx {
				idx[i] = i
			}
			c.sameRing(idx, n)

			// Safety: clients sharing their final view id delivered
			// identical full sequences only if they were together the whole
			// time; that is too strong under churn. The checkable VS core:
			// for each pair, one's delivery sequence of messages from any
			// single sender is a subsequence-consistent order — since total
			// order per component fixes relative order, any two clients'
			// sequences must agree on the relative order of the messages
			// they BOTH delivered.
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					assertRelativeOrderConsistent(t, recs[i].msgs, recs[j].msgs)
				}
			}
		})
	}
}

func TestViewOrderIdenticalUnderSessionSevers(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			const n = 4
			c := newCluster(t, 500+seed, n, gcs.TunedConfig())
			// recs accumulates every session epoch ever opened; live tracks
			// the current session per daemon.
			var recs []*clientRec
			live := make([]*clientRec, n)
			for i := 0; i < n; i++ {
				live[i] = c.connectClient(i, fmt.Sprintf("w%d", i), "wack")
				recs = append(recs, live[i])
			}
			c.sim.RunFor(5 * time.Second)

			rng := sim.New(900 + seed).Rand()
			downNIC := -1
			for step := 0; step < 8; step++ {
				switch rng.Intn(3) {
				case 0: // sever one client's session, then reconnect it
					i := rng.Intn(n)
					live[i].sess.Sever()
					c.sim.RunFor(time.Duration(500+rng.Intn(2000)) * time.Millisecond)
					live[i] = c.connectClient(i, fmt.Sprintf("w%d", i), "wack")
					recs = append(recs, live[i])
				case 1:
					if downNIC < 0 {
						downNIC = rng.Intn(n)
						c.hosts[downNIC].NICs()[0].SetUp(false)
					}
				case 2:
					if downNIC >= 0 {
						c.hosts[downNIC].NICs()[0].SetUp(true)
						downNIC = -1
					}
				}
				c.sim.RunFor(time.Duration(1000+rng.Intn(3000)) * time.Millisecond)
			}
			if downNIC >= 0 {
				c.hosts[downNIC].NICs()[0].SetUp(true)
			}
			c.sim.RunFor(20 * time.Second)

			// Safety: a view id names one immutable membership. Every client
			// that installed it — across daemons AND across session epochs —
			// must have seen the identical member list.
			byID := map[gcs.ViewID][]gcs.GroupMember{}
			for _, r := range recs {
				for _, v := range r.views {
					prev, ok := byID[v.ID]
					if !ok {
						byID[v.ID] = v.Members
						continue
					}
					if len(prev) != len(v.Members) {
						t.Fatalf("view %v has two memberships: %v vs %v", v.ID, prev, v.Members)
					}
					for k := range prev {
						if prev[k] != v.Members[k] {
							t.Fatalf("view %v has two memberships: %v vs %v", v.ID, prev, v.Members)
						}
					}
				}
			}

			// Safety: views install in the same relative order everywhere —
			// no two delivery sequences may disagree on the order of the
			// views they both installed.
			for i := 0; i < len(recs); i++ {
				for j := i + 1; j < len(recs); j++ {
					assertViewOrderConsistent(t, recs[i].views, recs[j].views)
				}
			}

			// Liveness: after the churn ends every surviving session agrees
			// on one final view holding all n clients.
			ref := live[0].lastView(t)
			if len(ref.Members) != n {
				t.Fatalf("final view has %d members, want %d: %v", len(ref.Members), n, ref.Members)
			}
			for i := 1; i < n; i++ {
				if v := live[i].lastView(t); v.ID != ref.ID {
					t.Fatalf("client %d final view %v != %v", i, v.ID, ref.ID)
				}
			}
		})
	}
}

// assertViewOrderConsistent fails if two view-install sequences order any
// common pair of view ids differently.
func assertViewOrderConsistent(t *testing.T, a, b []gcs.View) {
	t.Helper()
	posB := make(map[gcs.ViewID]int, len(b))
	for i, v := range b {
		posB[v.ID] = i
	}
	last := -1
	for _, v := range a {
		if p, ok := posB[v.ID]; ok {
			if p < last {
				t.Fatalf("common views installed in different orders (%v)", v.ID)
			}
			last = p
		}
	}
}

// assertRelativeOrderConsistent fails if two delivery sequences order any
// common pair of messages differently.
func assertRelativeOrderConsistent(t *testing.T, a, b []string) {
	t.Helper()
	posB := make(map[string]int, len(b))
	for i, m := range b {
		posB[m] = i
	}
	last := -1
	for _, m := range a {
		if p, ok := posB[m]; ok {
			if p < last {
				t.Fatalf("common messages delivered in different orders (%q)", m)
			}
			last = p
		}
	}
}

func TestNoDuplicateDeliveries(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		c := newCluster(t, 300+seed, 3, gcs.TunedConfig())
		c.poisonFreedRecords()
		recs := make([]*clientRec, 3)
		for i := range recs {
			recs[i] = c.connectClient(i, "w", "wack")
		}
		c.sim.RunFor(5 * time.Second)
		for k := 0; k < 20; k++ {
			if err := recs[0].sess.Multicast("wack", []byte(fmt.Sprintf("u%02d", k))); err != nil {
				t.Fatal(err)
			}
			if k == 10 {
				// A reconfiguration in the middle of the stream.
				c.hosts[2].NICs()[0].SetUp(false)
			}
		}
		c.sim.RunFor(10 * time.Second)
		for i := 0; i < 2; i++ {
			seen := map[string]bool{}
			for _, m := range recs[i].msgs {
				if seen[m] {
					t.Fatalf("seed %d: client %d delivered %q twice", seed, i, m)
				}
				seen[m] = true
			}
		}
	}
}
