package wackamole_test

// Chaos tests: randomized fault programs checked by the internal/check
// model checker — every run is watched by the full oracle set (Property 1
// exactly-once coverage per network component, Property 2 bounded
// convergence, virtual-synchrony view order, Agreed-delivery total order,
// interface/engine ownership agreement), not just by an end-state probe.
// Running them under `go test ./...` keeps the oracles themselves in
// tier-1. Unlike the pre-checker version of this file, the final state is
// checked without healing first: components that stay partitioned must each
// converge to full coverage on their own, which is the stronger reading of
// the paper's Property 1.

import (
	"fmt"
	"testing"
	"time"

	"wackamole"
	"wackamole/internal/check"
	"wackamole/internal/experiment"
	"wackamole/internal/load"
)

// runChecked generates the schedule for one seed and fails the test on any
// oracle violation, shrinking the offending schedule first so the failure
// message is actionable.
func runChecked(t *testing.T, seed int64, gen check.GenConfig, opts check.Options) {
	t.Helper()
	sched := check.Generate(seed, gen)
	rep, err := check.Run(sched, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violation == nil {
		return
	}
	minimal, minRep, _, serr := check.Shrink(sched, opts)
	if serr != nil {
		t.Fatalf("violation %v (shrink failed: %v)", rep.Violation, serr)
	}
	t.Fatalf("violation %v\nminimal schedule (%d events): %v", minRep.Violation,
		len(minimal.Events), minimal.Events)
}

func TestChaosMonkeyConvergesToExactlyOnce(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runChecked(t, seed,
				check.GenConfig{Servers: 5, VIPs: 10, Steps: 12},
				check.Options{})
		})
	}
}

func TestChaosWithRepresentativeDecisions(t *testing.T) {
	for seed := int64(20); seed <= 23; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runChecked(t, seed,
				check.GenConfig{Servers: 4, VIPs: 8, Steps: 8},
				check.Options{RepresentativeDecisions: true})
		})
	}
}

func TestLargerClusterScales(t *testing.T) {
	c := newCluster(t, wackamole.ClusterOptions{Seed: 55, Servers: 20, VIPs: 40})
	c.Settle()
	checkExactlyOnce(t, c)
	for i, n := range c.CoverageByServer() {
		if n != 2 {
			t.Fatalf("server %d holds %d, want 2 (40 VIPs / 20 servers)", i, n)
		}
	}
	c.FailServer(7)
	c.FailServer(13)
	c.RunFor(10 * time.Second)
	checkExactlyOnce(t, c)
}

// TestChaosLoadDrivenNICFailure is the load-driven chaos case: a NIC failure
// under 200 concurrent closed-loop clients. Unlike the checker schedules
// above, the oracle here is the client population itself — every request must
// land in a bounded error class (ok / reset / timeout / stale, nothing
// unexplained), the damage must be proportionate to the outage, and goodput
// must recover after the takeover.
func TestChaosLoadDrivenNICFailure(t *testing.T) {
	cfg := experiment.AvailabilityConfig{
		Clients:   200,
		Mode:      load.Closed,
		ThinkTime: 200 * time.Millisecond,
		Fault:     experiment.FaultNIC,
		PreFault:  2 * time.Second,
	}
	_, res, err := experiment.AvailabilityTrial(41, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// No errors of any class outside the fault window.
	if res.Before.Completions == 0 || res.Before.Completions != res.Before.OK {
		t.Fatalf("fault-free window: %d completions, %d ok — want all ok",
			res.Before.Completions, res.Before.OK)
	}
	// Error classes are bounded: a closed-loop client has at most one
	// request in flight, so each can lose its connection once and then fail
	// a handful of operations while the takeover completes. Orders of
	// magnitude more would mean requests are being misclassified or
	// double-counted.
	st := res.Stats
	errs := st.Requests[load.ClassReset] + st.Requests[load.ClassTimeout] + st.Requests[load.ClassStale]
	if errs == 0 {
		t.Fatal("a NIC failure under load produced no client-visible errors")
	}
	if max := uint64(20 * cfg.Clients); errs > max {
		t.Fatalf("%d failed requests across one fail-over of %d clients, want ≤ %d", errs, cfg.Clients, max)
	}
	if st.ConnsLost == 0 || st.ConnsLost > uint64(cfg.Clients) {
		t.Fatalf("ConnsLost = %d, want in 1..%d (each client holds one connection)", st.ConnsLost, cfg.Clients)
	}
	// Goodput recovers: the post-recovery window's ok fraction matches the
	// fault-free window's.
	if res.After.Completions == 0 || res.Recovery < 0.99 {
		t.Fatalf("goodput did not recover: after=%d completions, recovery=%v",
			res.After.Completions, res.Recovery)
	}
}

func TestFiftyServerCluster(t *testing.T) {
	c := newCluster(t, wackamole.ClusterOptions{Seed: 99, Servers: 50, VIPs: 50})
	c.Settle()
	checkExactlyOnce(t, c)
	for i, n := range c.CoverageByServer() {
		if n != 1 {
			t.Fatalf("server %d holds %d VIPs, want 1", i, n)
		}
	}
	// Take out five servers at once.
	for i := 0; i < 5; i++ {
		c.FailServer(i * 9)
	}
	c.RunFor(10 * time.Second)
	checkExactlyOnce(t, c)
}
