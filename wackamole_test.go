package wackamole_test

import (
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"time"

	"wackamole"
	"wackamole/internal/core"
	"wackamole/internal/gcs"
	"wackamole/internal/obs"
)

func newCluster(t *testing.T, opts wackamole.ClusterOptions) *wackamole.Cluster {
	t.Helper()
	c, err := wackamole.NewCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// checkExactlyOnce asserts that every virtual address is held by exactly
// one reachable server (Property 1 at the network level).
func checkExactlyOnce(t *testing.T, c *wackamole.Cluster) {
	t.Helper()
	for _, vip := range c.VIPs() {
		owner, holders := c.Owner(vip)
		if holders != 1 {
			t.Fatalf("vip %v held by %d reachable servers, want 1", vip, holders)
		}
		if owner < 0 {
			t.Fatalf("vip %v has no owner", vip)
		}
	}
}

func TestClusterFormsAndCoversEverything(t *testing.T) {
	c := newCluster(t, wackamole.ClusterOptions{Seed: 1, Servers: 5, VIPs: 10})
	c.Settle()
	checkExactlyOnce(t, c)
	// Engine tables agree across all servers.
	ref := c.Servers[0].Node.Status()
	if ref.State != core.StateRun {
		t.Fatalf("server 0 state = %v", ref.State)
	}
	for i, srv := range c.Servers[1:] {
		st := srv.Node.Status()
		if st.ViewID != ref.ViewID {
			t.Fatalf("server %d view %q != %q", i+1, st.ViewID, ref.ViewID)
		}
		for g, owner := range ref.Table {
			if st.Table[g] != owner {
				t.Fatalf("tables diverge on %q", g)
			}
		}
	}
	// Initial allocation is reasonably even (10 VIPs on 5 servers: 2 each).
	for i, n := range c.CoverageByServer() {
		if n != 2 {
			t.Fatalf("server %d holds %d VIPs, want 2 (coverage %v)", i, n, c.CoverageByServer())
		}
	}
}

func TestFailoverReallocatesWithinTunedBudget(t *testing.T) {
	c := newCluster(t, wackamole.ClusterOptions{Seed: 2, Servers: 4, VIPs: 10})
	c.Settle()
	vip := c.VIPs()[0]
	victim, _ := c.Owner(vip)
	start := c.Sim.Elapsed()
	c.FailServer(victim)
	// Run until the address is covered again, in small steps.
	covered := time.Duration(-1)
	for d := time.Duration(0); d < 10*time.Second; d += 50 * time.Millisecond {
		c.RunFor(50 * time.Millisecond)
		if _, holders := c.Owner(vip); holders == 1 {
			covered = c.Sim.Elapsed() - start
			break
		}
	}
	if covered < 0 {
		t.Fatal("vip never reallocated after failure")
	}
	// Tuned Spread: detection in (0.6s, 1.0s], discovery 1.4s, so
	// reallocation should land between 2.0s and ~2.6s.
	if covered < 1900*time.Millisecond || covered > 2800*time.Millisecond {
		t.Fatalf("reallocation took %v, want ≈2.0-2.6s (tuned Table 1 budget)", covered)
	}
	c.RunFor(5 * time.Second)
	checkExactlyOnce(t, c)
}

// TestIdleClusterTracesNothing: the trace records protocol steps, and a
// settled cluster that nothing disturbs takes none, so a minute of idling
// emits no event. A bounded ring's history is then its last fail-overs,
// however long ago they were.
func TestIdleClusterTracesNothing(t *testing.T) {
	tracer := obs.New(0, nil)
	c := newCluster(t, wackamole.ClusterOptions{Seed: 1, Servers: 3, VIPs: 6, Tracer: tracer})
	c.Settle()
	settled, tokens := tracer.Emitted(), c.Servers[0].Node.Daemon().Stats().TokensForwarded
	if settled == 0 {
		t.Fatal("vacuous: forming the cluster emitted nothing")
	}
	c.RunFor(60 * time.Second)
	if c.Servers[0].Node.Daemon().Stats().TokensForwarded == tokens {
		t.Fatal("vacuous: the ring forwarded no token while idle")
	}
	if idle := tracer.Emitted() - settled; idle != 0 {
		evs := tracer.Snapshot()
		t.Fatalf("a settled cluster idle for 60s emitted %d events, the newest %v", idle, evs[len(evs)-1])
	}
}

func TestPartitionEachComponentCoversAllThenMergeResolves(t *testing.T) {
	c := newCluster(t, wackamole.ClusterOptions{Seed: 3, Servers: 5, VIPs: 8})
	c.Settle()
	c.Partition([]int{0, 1, 2}, []int{3, 4})
	c.RunFor(10 * time.Second)
	// Each side must independently hold all 8 addresses: total 16 held.
	perSide := map[int]int{}
	for _, vip := range c.VIPs() {
		for i, srv := range c.Servers {
			if srv.NIC.HasAddr(vip) {
				side := 0
				if i >= 3 {
					side = 1
				}
				perSide[side]++
			}
		}
	}
	if perSide[0] != 8 || perSide[1] != 8 {
		t.Fatalf("per-side coverage = %v, want 8 and 8", perSide)
	}
	c.Heal()
	c.RunFor(15 * time.Second)
	checkExactlyOnce(t, c)
}

func TestGracefulLeaveReallocatesInMilliseconds(t *testing.T) {
	c := newCluster(t, wackamole.ClusterOptions{Seed: 4, Servers: 3, VIPs: 9})
	c.Settle()
	leaver := 2
	ringBefore, _, _ := c.Servers[0].Node.Daemon().Ring()
	start := c.Sim.Elapsed()
	if err := c.Servers[leaver].Node.LeaveService(); err != nil {
		t.Fatal(err)
	}
	covered := time.Duration(-1)
	for d := time.Duration(0); d < time.Second; d += 5 * time.Millisecond {
		c.RunFor(5 * time.Millisecond)
		done := true
		for _, vip := range c.VIPs() {
			if _, holders := c.Owner(vip); holders != 1 {
				done = false
				break
			}
		}
		if done {
			covered = c.Sim.Elapsed() - start
			break
		}
	}
	if covered < 0 {
		t.Fatal("graceful leave never converged")
	}
	// §6: voluntary departure interrupts availability for milliseconds
	// (measurements as low as 10ms, conservative bound 250ms), because no
	// daemon-level reconfiguration happens.
	if covered > 250*time.Millisecond {
		t.Fatalf("graceful leave took %v, want ≤ 250ms", covered)
	}
	ringAfter, _, _ := c.Servers[0].Node.Daemon().Ring()
	if ringBefore != ringAfter {
		t.Fatal("graceful leave triggered daemon reconfiguration")
	}
}

func TestSeveredSessionDropsAddressesAndReconnects(t *testing.T) {
	c := newCluster(t, wackamole.ClusterOptions{
		Seed: 5, Servers: 3, VIPs: 6,
		BalanceTimeout: 5 * time.Second,
	})
	c.Settle()
	victim := c.Servers[0]
	if len(victim.Node.Status().Owned) == 0 {
		t.Fatal("vacuous: victim owns nothing")
	}
	victim.Node.Session().Sever()
	// §4.2: it must immediately drop its virtual interfaces...
	for _, vip := range c.VIPs() {
		if victim.NIC.HasAddr(vip) {
			t.Fatalf("severed node still holds %v", vip)
		}
	}
	if victim.Node.Status().State != core.StateDetached {
		t.Fatalf("severed node state = %v, want detached", victim.Node.Status().State)
	}
	c.RunFor(3 * time.Second)
	checkExactlyOnce(t, c)
	// ...and periodically reconnect; after balancing it serves again.
	c.RunFor(10 * time.Second)
	if victim.Node.Status().State != core.StateRun {
		t.Fatalf("severed node did not reattach (state %v)", victim.Node.Status().State)
	}
	if len(victim.Node.Status().Owned) == 0 {
		t.Fatal("reattached node was never rebalanced back into service")
	}
	checkExactlyOnce(t, c)
}

func TestMaturityBootstrapAvoidsBootChurn(t *testing.T) {
	c := newCluster(t, wackamole.ClusterOptions{
		Seed: 6, Servers: 4, VIPs: 8,
		Bootstrap:     true,
		MatureTimeout: 6 * time.Second,
	})
	// After formation but before the maturity timeout, nothing is covered.
	c.RunFor(4 * time.Second)
	total := 0
	for _, n := range c.CoverageByServer() {
		total += n
	}
	if total != 0 {
		t.Fatalf("immature cluster already holds %d addresses", total)
	}
	c.RunFor(10 * time.Second)
	checkExactlyOnce(t, c)
}

func TestFailedServerRejoinsAndIsRebalanced(t *testing.T) {
	c := newCluster(t, wackamole.ClusterOptions{
		Seed: 7, Servers: 3, VIPs: 9,
		BalanceTimeout: 5 * time.Second,
	})
	c.Settle()
	c.FailServer(2)
	c.RunFor(8 * time.Second)
	checkExactlyOnce(t, c)
	c.RestoreServer(2)
	c.RunFor(20 * time.Second)
	checkExactlyOnce(t, c)
	cov := c.CoverageByServer()
	if cov[2] != 3 {
		t.Fatalf("rejoined server holds %d VIPs after balance, want 3 (coverage %v)", cov[2], cov)
	}
}

func TestClusterOptionValidation(t *testing.T) {
	cases := []wackamole.ClusterOptions{
		{Servers: 0, VIPs: 5},
		{Servers: 3, VIPs: 0},
		{Servers: 500, VIPs: 5},
		{Servers: 3, VIPs: 101},
	}
	for i, opts := range cases {
		if _, err := wackamole.NewCluster(opts); err == nil {
			t.Fatalf("case %d: invalid options accepted", i)
		}
	}
	if _, err := wackamole.NewCluster(wackamole.ClusterOptions{Servers: 91, VIPs: 1}); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Errorf("91 servers: err = %v, want the overlap with the virtual addresses named", err)
	}

	// The largest plan accepted: every host and virtual address distinct, and
	// no server holding a virtual address before the cluster has formed.
	c := newCluster(t, wackamole.ClusterOptions{Servers: 90, VIPs: 100, WithRouter: true})
	seen := map[netip.Addr]string{}
	add := func(a netip.Addr, who string) {
		if prev, dup := seen[a]; dup {
			t.Errorf("%v is both %s and %s", a, prev, who)
		}
		seen[a] = who
	}
	add(wackamole.RouterInsideAddr, "the router")
	for i, srv := range c.Servers {
		add(srv.NIC.Primary(), fmt.Sprintf("server %d", i))
	}
	for j, vip := range c.VIPs() {
		add(vip, fmt.Sprintf("virtual address %d", j))
		if _, holders := c.Owner(vip); holders != 0 {
			t.Errorf("virtual address %v held by %d servers before the cluster formed", vip, holders)
		}
	}
}

func TestPerNodePreferencesViaConfigureNode(t *testing.T) {
	c := newCluster(t, wackamole.ClusterOptions{
		Seed: 8, Servers: 2, VIPs: 4,
		BalanceTimeout: 3 * time.Second,
		ConfigureNode: func(i int, cfg *wackamole.Config) {
			if i == 1 {
				cfg.Engine.Prefer = []string{"vip00", "vip01"}
			}
		},
	})
	c.Settle()
	c.RunFor(10 * time.Second)
	srv := c.Servers[1]
	if !srv.NIC.HasAddr(wackamole.VIPAddr(0)) || !srv.NIC.HasAddr(wackamole.VIPAddr(1)) {
		t.Fatalf("preferences not honoured; coverage %v", c.CoverageByServer())
	}
	checkExactlyOnce(t, c)
}

func TestCascadingFaultsKeepExactlyOnce(t *testing.T) {
	c := newCluster(t, wackamole.ClusterOptions{Seed: 9, Servers: 6, VIPs: 12})
	c.Settle()
	c.FailServer(5)
	c.RunFor(1200 * time.Millisecond) // mid-reconfiguration
	c.FailServer(4)
	c.RunFor(800 * time.Millisecond)
	c.FailServer(3)
	c.RunFor(15 * time.Second)
	checkExactlyOnce(t, c)
	cov := c.CoverageByServer()
	total := 0
	for _, n := range cov {
		total += n
	}
	if total != 12 {
		t.Fatalf("survivors hold %d addresses, want 12 (%v)", total, cov)
	}
}

func TestDefaultConfigClusterMatchesTable1Budget(t *testing.T) {
	c := newCluster(t, wackamole.ClusterOptions{
		Seed: 10, Servers: 4, VIPs: 10,
		GCS: gcs.DefaultConfig(),
	})
	c.Settle()
	vip := c.VIPs()[0]
	victim, _ := c.Owner(vip)
	start := c.Sim.Elapsed()
	c.FailServer(victim)
	covered := time.Duration(-1)
	for d := time.Duration(0); d < 30*time.Second; d += 100 * time.Millisecond {
		c.RunFor(100 * time.Millisecond)
		if _, holders := c.Owner(vip); holders == 1 {
			covered = c.Sim.Elapsed() - start
			break
		}
	}
	if covered < 0 {
		t.Fatal("never reallocated")
	}
	// Default Spread: 10s to 12s notification plus protocol slack (§6).
	if covered < 9500*time.Millisecond || covered > 13*time.Second {
		t.Fatalf("default-config reallocation took %v, want ≈10-12s", covered)
	}
}

func TestStatusAndAccessors(t *testing.T) {
	c := newCluster(t, wackamole.ClusterOptions{Seed: 11, Servers: 2, VIPs: 2})
	c.Settle()
	n := c.Servers[0].Node
	if n.Daemon() == nil || n.Session() == nil || n.Engine() == nil {
		t.Fatal("accessor returned nil")
	}
	if n.Member() == "" {
		t.Fatal("empty member identity")
	}
	st := n.Status()
	if st.State != core.StateRun || len(st.Members) != 2 {
		t.Fatalf("status = %+v", st)
	}
	if err := n.Start(); err == nil {
		t.Fatal("double Start succeeded")
	}
}

func TestRepresentativeDecisionsCluster(t *testing.T) {
	c := newCluster(t, wackamole.ClusterOptions{
		Seed: 12, Servers: 4, VIPs: 8,
		RepresentativeDecisions: true,
	})
	c.Settle()
	checkExactlyOnce(t, c)
	c.FailServer(0) // the representative itself fails
	c.RunFor(8 * time.Second)
	checkExactlyOnce(t, c)
	c.Partition([]int{0, 1, 2}, []int{3}) // failed server 0 rides along silently
	c.RunFor(10 * time.Second)
	c.Heal()
	c.RunFor(15 * time.Second)
	checkExactlyOnce(t, c)
}

func TestManySeedsConverge(t *testing.T) {
	for seed := int64(100); seed < 110; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c := newCluster(t, wackamole.ClusterOptions{Seed: seed, Servers: 5, VIPs: 10})
			c.Settle()
			victim := int(seed) % 5
			c.FailServer(victim)
			c.RunFor(10 * time.Second)
			checkExactlyOnce(t, c)
		})
	}
}
