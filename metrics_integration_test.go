package wackamole_test

import (
	"fmt"
	"testing"
	"time"

	"wackamole"
	"wackamole/internal/metrics"
)

// TestClusterMetricsEndToEnd drives a fail-over with a registry installed
// and verifies that every latency family the paper's §5 components map to
// carries observations, and that the cluster-wide merged histograms are
// coherent (count > 0, quantiles within the instrument's range).
func TestClusterMetricsEndToEnd(t *testing.T) {
	reg := metrics.New()
	c := newCluster(t, wackamole.ClusterOptions{Seed: 11, Servers: 4, VIPs: 8, Metrics: reg})
	c.Settle()
	vip := c.VIPs()[0]
	victim, _ := c.Owner(vip)
	c.FailServer(victim)
	c.RunFor(10 * time.Second)
	if _, holders := c.Owner(vip); holders != 1 {
		t.Fatalf("vip %v held by %d servers after fail-over", vip, holders)
	}

	snap := reg.Snapshot()
	for _, fam := range []string{
		"gcs_token_rotation_seconds",
		"gcs_delivery_seconds",
		"gcs_membership_install_seconds",
		"gcs_retransmits_per_reconfig",
		"core_state_sync_seconds",
		"core_announce_lag_seconds",
	} {
		h := snap.MergedHistogram(fam)
		if h.Count() == 0 {
			t.Errorf("%s: no observations after a fail-over", fam)
			continue
		}
		if q := h.Quantile(0.99); q <= 0 {
			t.Errorf("%s: P99 = %g, want > 0", fam, q)
		}
	}
	// Membership install: the fail-over reconfigured, so installs after the
	// boot round exist and took at least the discovery timeout's order.
	install := snap.MergedHistogram("gcs_membership_install_seconds")
	if d := install.QuantileDuration(0.5); d <= 0 {
		t.Errorf("membership install P50 = %v, want > 0", d)
	}
}

// TestClusterMetricsDoNotPerturbSimulation pins the no-op guarantee end to
// end: a seeded run with a registry installed produces byte-identical
// protocol activity to the same run without one.
func TestClusterMetricsDoNotPerturbSimulation(t *testing.T) {
	run := func(reg *metrics.Registry) string {
		c := newCluster(t, wackamole.ClusterOptions{Seed: 23, Servers: 3, VIPs: 6, Metrics: reg})
		c.Settle()
		c.FailServer(0)
		c.RunFor(8 * time.Second)
		var out string
		for i, srv := range c.Servers {
			ds := srv.Node.Daemon().Stats()
			es := srv.Node.Engine().Stats()
			out += fmt.Sprintf("%d %+v %+v %v\n", i, ds, es, c.CoverageByServer())
		}
		out += fmt.Sprintf("frames %+v", c.Net.Counters())
		return out
	}
	plain := run(nil)
	instrumented := run(metrics.New())
	if plain != instrumented {
		t.Fatalf("metrics perturbed the simulation:\n--- without ---\n%s\n--- with ---\n%s", plain, instrumented)
	}
}
