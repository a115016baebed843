package wackamole_test

// Unit tests of the Node composition layer: construction errors, the
// reconnect loop, and configuration defaults.

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"wackamole"
	"wackamole/internal/core"
	"wackamole/internal/gcs"
	"wackamole/internal/ipmgr"
	"wackamole/internal/metrics"
	"wackamole/internal/netsim"
	"wackamole/internal/obs"
	"wackamole/internal/sim"
)

func TestNewClusterRejectsBadConfigs(t *testing.T) {
	// Invalid gcs config propagates out of NewNode.
	bad := gcs.TunedConfig()
	bad.HeartbeatInterval = bad.FaultDetectTimeout * 2
	if _, err := wackamole.NewCluster(wackamole.ClusterOptions{
		Seed: 1, Servers: 1, VIPs: 1, GCS: bad,
	}); err == nil {
		t.Fatal("invalid gcs config accepted")
	}
	// Invalid engine config via ConfigureNode.
	if _, err := wackamole.NewCluster(wackamole.ClusterOptions{
		Seed: 1, Servers: 1, VIPs: 1,
		ConfigureNode: func(_ int, cfg *wackamole.Config) {
			cfg.Engine.Groups = nil
		},
	}); err == nil {
		t.Fatal("invalid engine config accepted")
	}
}

func TestReconnectAfterRepeatedSevers(t *testing.T) {
	c := newCluster(t, wackamole.ClusterOptions{
		Seed: 31, Servers: 2, VIPs: 4,
		BalanceTimeout: 4 * time.Second,
	})
	c.Settle()
	victim := c.Servers[0].Node
	for round := 0; round < 3; round++ {
		if victim.Session() == nil {
			t.Fatalf("round %d: no session to sever", round)
		}
		victim.Session().Sever()
		if victim.Session() != nil {
			t.Fatal("session reference survives sever")
		}
		c.RunFor(15 * time.Second)
		if victim.Status().State != core.StateRun {
			t.Fatalf("round %d: node never recovered (state %v)", round, victim.Status().State)
		}
	}
	checkExactlyOnce(t, c)
}

func TestLeaveServiceTwiceErrors(t *testing.T) {
	c := newCluster(t, wackamole.ClusterOptions{Seed: 32, Servers: 2, VIPs: 2})
	c.Settle()
	n := c.Servers[0].Node
	if err := n.LeaveService(); err != nil {
		t.Fatal(err)
	}
	if err := n.LeaveService(); err == nil {
		t.Fatal("second LeaveService succeeded")
	}
}

func TestStopIsIdempotentAndStopsReconnects(t *testing.T) {
	c := newCluster(t, wackamole.ClusterOptions{Seed: 33, Servers: 2, VIPs: 2})
	c.Settle()
	n := c.Servers[1].Node
	n.Stop()
	n.Stop() // second stop must be harmless
	c.RunFor(20 * time.Second)
	if n.Status().State != core.StateDetached {
		t.Fatalf("stopped node state = %v", n.Status().State)
	}
	// The survivor covers everything.
	cov := c.CoverageByServer()
	if cov[0] != 2 {
		t.Fatalf("survivor coverage = %v", cov)
	}
}

func TestNodeStopGracefulVsCrashTiming(t *testing.T) {
	// A graceful Stop must reconfigure the survivors much faster than a
	// crash (discovery only vs detection + discovery).
	measure := func(graceful bool) time.Duration {
		c := newCluster(t, wackamole.ClusterOptions{Seed: 34, Servers: 3, VIPs: 6})
		c.Settle()
		var installedAt time.Duration
		c.Servers[0].Node.Daemon().SetMembershipHandler(func(_ gcs.RingID, members []gcs.DaemonID) {
			if len(members) == 2 && installedAt == 0 {
				installedAt = c.Sim.Elapsed()
			}
		})
		start := c.Sim.Elapsed()
		if graceful {
			c.Servers[2].Node.Stop()
		} else {
			c.Servers[2].Host.Crash()
		}
		c.RunFor(15 * time.Second)
		if installedAt == 0 {
			t.Fatal("survivors never reconfigured")
		}
		return installedAt - start
	}
	graceful, crash := measure(true), measure(false)
	if graceful >= crash {
		t.Fatalf("graceful stop (%v) not faster than crash (%v)", graceful, crash)
	}
	if graceful > 2*time.Second {
		t.Fatalf("graceful stop took %v, want ≈ discovery round", graceful)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := newCluster(t, wackamole.ClusterOptions{Seed: 35, Servers: 1, VIPs: 1})
	c.Settle()
	st := c.Servers[0].Node.Status()
	if st.State != core.StateRun {
		t.Fatalf("state = %v", st.State)
	}
	// The default group name is used when none is configured.
	if got := c.Servers[0].Node.Member(); got == "" {
		t.Fatal("empty member")
	}
}

// TestNodeInstrumentsComeFromEnv pins construction-time wiring: a Node built
// on an Env carrying a tracer, a registry and an HLC traces, measures and
// stamps from its first event with no setter called. Two hand-built nodes
// share a tracer and a registry; the first one's HLC runs an hour ahead, so
// the only way the second can have seen that skew is off a stamped wire
// header.
func TestNodeInstrumentsComeFromEnv(t *testing.T) {
	s := sim.New(41)
	nw := netsim.New(s)
	seg := nw.NewSegment("lan", netsim.DefaultSegmentConfig())
	tracer, registry := obs.New(0, s.Now), metrics.New()
	ahead := func() time.Time { return s.Now().Add(time.Hour) }
	clocks := []*obs.HLCClock{obs.NewHLCClock(ahead, "a"), obs.NewHLCClock(s.Now, "b")}
	clocks[1].SetMetrics(registry)
	group := core.VIPGroup{Name: "vip00", Addrs: []netip.Addr{wackamole.VIPAddr(0)}}
	var nodes []*wackamole.Node
	for i, hlc := range clocks {
		host := nw.NewHost(fmt.Sprintf("server%02d", i))
		nic := host.AttachNIC(seg, "eth0", netip.PrefixFrom(wackamole.ServerAddr(i), 24))
		ep, err := host.OpenEndpoint(nic, wackamole.DefaultPort)
		if err != nil {
			t.Fatal(err)
		}
		e := ep.Env(nil)
		e.Tracer, e.Metrics, e.HLC = tracer, registry, hlc
		node, err := wackamole.NewNode(e, wackamole.Config{
			GCS:    gcs.TunedConfig(),
			Engine: core.Config{Groups: []core.VIPGroup{group}, StartMature: true},
		}, &ipmgr.NICBackend{NIC: nic}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if node.Tracer() != tracer || node.Metrics() != registry {
			t.Fatal("node accessors do not return the Env's instruments")
		}
		if err := node.Start(); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
	}
	s.RunFor(5 * time.Second)

	stamped := map[obs.Source]int{}
	for _, ev := range tracer.Snapshot() {
		if ev.HLC.IsZero() {
			t.Fatalf("event without an HLC stamp: %v", ev)
		}
		stamped[ev.Source]++
	}
	if stamped[obs.SourceGCS] == 0 || stamped[obs.SourceCore] == 0 {
		t.Fatalf("stamped events by source = %v, want daemon and engine events", stamped)
	}
	snap := registry.Snapshot()
	for _, name := range []string{"gcs_token_rotation_seconds", "core_state_sync_seconds"} {
		if snap.MergedHistogram(name).Count() == 0 {
			t.Fatalf("%s has no observations", name)
		}
	}
	// obs_hlc_skew_ns is the second node's only series: the first node's
	// clock carries no registry.
	if fam := snap.Family("obs_hlc_skew_ns"); fam == nil || len(fam.Series) != 1 || time.Duration(fam.Series[0].Value) < 59*time.Minute {
		t.Fatalf("second node's skew gauge %+v: the first node's wire headers carry no stamp", fam)
	}
	if nodes[0].Status().State != core.StateRun || nodes[1].Status().State != core.StateRun {
		t.Fatal("nodes did not reach RUN")
	}
}

// TestTokenPassAllocationsWithAndWithoutInstruments pins what the instruments
// cost on the protocol's hottest path, one token pass of a settled singleton
// ring: nothing when the Env carries none, and nothing when it carries a
// tracer and a registry (ring-buffer emit and histogram observe are
// allocation-free). A singleton forwards the token to itself, so the pass is
// also netsim's loop-back datagram, which is pooled like every other.
func TestTokenPassAllocationsWithAndWithoutInstruments(t *testing.T) {
	tokenPass := func(opts wackamole.ClusterOptions) float64 {
		opts.Seed, opts.Servers, opts.VIPs = 42, 1, 1
		c := newCluster(t, opts)
		c.Settle()
		// One tokenInterval of simulated time is one pass; heartbeats (every
		// 400 passes) vanish in AllocsPerRun's integer average.
		return testing.AllocsPerRun(2000, func() { c.RunFor(time.Millisecond) })
	}
	if bare := tokenPass(wackamole.ClusterOptions{}); bare != 0 {
		t.Fatalf("token pass on a bare Env allocates %.0f, want 0", bare)
	}
	if armed := tokenPass(wackamole.ClusterOptions{Tracer: obs.New(0, nil), Metrics: metrics.New()}); armed != 0 {
		t.Fatalf("token pass allocates %.0f with tracer and registry, want 0", armed)
	}
}
