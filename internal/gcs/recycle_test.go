package gcs_test

import (
	"testing"
	"time"

	"wackamole"
	"wackamole/internal/invariant"
)

// TestPoisonedFreeListUnderClusterChurn runs a whole Wackamole cluster —
// engines exchanging STATE_MSGs over the group layer — through failures,
// partitions and heals with every daemon's free list poisoned, under the
// invariant monitor. A stored message read after the install that retired it
// would surface as a view the members disagree on, a lost or doubly held
// address, or an engine that rejects its peers' state.
func TestPoisonedFreeListUnderClusterChurn(t *testing.T) {
	const servers = 5
	mon := invariant.New(invariant.Config{Nodes: servers})
	c, err := wackamole.NewCluster(wackamole.ClusterOptions{
		Seed:       17,
		Servers:    servers,
		VIPs:       10,
		Invariants: mon,
		OnNode:     func(_ int, n *wackamole.Node) { n.Daemon().PoisonFreedRecords() },
	})
	if err != nil {
		t.Fatal(err)
	}
	mon.SetNow(c.Sim.Elapsed)
	c.Settle()
	settled := func(step string) {
		t.Helper()
		c.RunFor(6 * time.Second)
		mon.CheckSettled(c.InvariantView(), c.RunFor)
		if v := mon.Violation(); v != nil {
			t.Fatalf("%s: %v", step, v)
		}
	}
	installsBefore := mon.Installs()
	for cycle := 0; cycle < 3; cycle++ {
		c.FailServer(cycle)
		settled("fail")
		c.RestoreServer(cycle)
		settled("restore")
		c.Partition([]int{0, 1}, []int{2, 3, 4})
		settled("partition")
		c.Heal()
		settled("heal")
	}
	ring, _, _ := c.Servers[0].Node.Daemon().Ring()
	for i, srv := range c.Servers {
		if id, members, _ := srv.Node.Daemon().Ring(); id != ring || len(members) != servers {
			t.Fatalf("server %d on ring %v with %d members after the last heal, want %v with %d", i, id, len(members), ring, servers)
		}
	}
	if n := mon.Installs() - installsBefore; n < 12 {
		t.Fatalf("%d view installations over 12 membership changes; the free lists were barely exercised", n)
	}
}
