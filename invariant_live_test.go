package wackamole_test

// Always-on invariants over a live (non-simulated) cluster: three real
// daemons on loopback UDP, each on its own event-loop goroutine, share one
// online invariant.Monitor while status probes hammer the nodes, a member is
// killed abruptly and another leaves service. Run under -race this pins the
// monitor's claim to be the one piece of state concurrent nodes may share.

import (
	"net/netip"
	"testing"
	"time"

	"wackamole"
	"wackamole/internal/core"
	"wackamole/internal/env/realtime"
	"wackamole/internal/gcs"
	"wackamole/internal/invariant"
	"wackamole/internal/ipmgr"
	"wackamole/internal/metrics"
	"wackamole/internal/obs"
)

type liveDaemon struct {
	node    *wackamole.Node
	loop    *realtime.Loop
	cleanup func()
}

func (d *liveDaemon) status() core.Status {
	out := make(chan core.Status, 1)
	d.loop.Post(func() { out <- d.node.Status() })
	return <-out
}

func (d *liveDaemon) shutdown() {
	if d.cleanup == nil {
		return
	}
	done := make(chan struct{})
	d.loop.Post(func() { d.node.Stop(); close(done) })
	select {
	case <-done:
	case <-time.After(2 * time.Second):
	}
	d.cleanup()
	d.cleanup = nil
}

func TestInvariantMonitorLiveCluster(t *testing.T) {
	peers := []string{"127.0.0.1:24930", "127.0.0.1:24931", "127.0.0.1:24932"}
	groups := []core.VIPGroup{
		{Name: "web1", Addrs: []netip.Addr{netip.MustParseAddr("10.9.0.100")}},
		{Name: "web2", Addrs: []netip.Addr{netip.MustParseAddr("10.9.0.101")}},
		{Name: "web3", Addrs: []netip.Addr{netip.MustParseAddr("10.9.0.102")}},
	}
	reg := metrics.New()
	mon := invariant.New(invariant.Config{
		Nodes:   len(peers),
		Metrics: reg,
		Tracer:  obs.New(1024, nil),
		Name:    "live-test",
	})

	daemons := make([]*liveDaemon, len(peers))
	defer func() {
		for _, d := range daemons {
			if d != nil {
				d.shutdown()
			}
		}
	}()
	for i, addr := range peers {
		e, loop, cleanup, err := realtime.NewEnv(addr, peers, nil)
		if err != nil {
			t.Fatal(err)
		}
		node, err := wackamole.NewNode(e, wackamole.Config{
			GCS: gcs.Config{
				FaultDetectTimeout: 800 * time.Millisecond,
				HeartbeatInterval:  200 * time.Millisecond,
				DiscoveryTimeout:   600 * time.Millisecond,
			},
			Engine: core.Config{Groups: groups, StartMature: true, BalanceTimeout: 2 * time.Second},
		}, &ipmgr.FakeBackend{}, nil)
		if err != nil {
			cleanup()
			t.Fatal(err)
		}
		d := &liveDaemon{node: node, loop: loop, cleanup: cleanup}
		// Attach before Start so the monitor sees every event from boot on.
		mon.Attach(i, node)
		startErr := make(chan error, 1)
		loop.Post(func() { startErr <- node.Start() })
		if err := <-startErr; err != nil {
			cleanup()
			t.Fatal(err)
		}
		daemons[i] = d
	}

	// Status probes from extra goroutines for the whole run, so -race sees
	// monitor hooks and probes interleave. Each daemon gets
	// its own stop channel: a probe posted to a closed loop would never run,
	// so a daemon's prober must stop before that daemon shuts down.
	probeStops := make([]chan struct{}, len(daemons))
	probeDone := make([]chan struct{}, len(daemons))
	for i, d := range daemons {
		d, stop, done := d, make(chan struct{}), make(chan struct{})
		probeStops[i], probeDone[i] = stop, done
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				case <-time.After(10 * time.Millisecond):
					_ = d.status()
				}
			}
		}()
	}
	// stopProber returns once the prober has exited: one still inside
	// status() when its daemon's loop closes would wait forever.
	stopProber := func(i int) {
		if probeStops[i] != nil {
			close(probeStops[i])
			<-probeDone[i]
			probeStops[i] = nil
		}
	}
	defer func() {
		for i := range probeStops {
			stopProber(i)
		}
	}()

	waitFor := func(desc string, limit time.Duration, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(limit)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", desc)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	covered := func(ds ...*liveDaemon) bool {
		held := 0
		for _, d := range ds {
			held += len(d.status().Owned)
		}
		return held == len(groups)
	}

	waitFor("cluster formation", 15*time.Second, func() bool {
		for _, d := range daemons {
			st := d.status()
			if st.State != core.StateRun || len(st.Members) != len(peers) {
				return false
			}
		}
		return covered(daemons...)
	})

	// Abrupt kill: daemon 2's loop and socket vanish mid-protocol; the
	// survivors must re-form and re-cover every address.
	stopProber(2)
	daemons[2].shutdown()
	waitFor("fail-over after abrupt kill", 15*time.Second, func() bool {
		for _, d := range daemons[:2] {
			st := d.status()
			if st.State != core.StateRun || len(st.Members) != 2 {
				return false
			}
		}
		return covered(daemons[:2]...)
	})

	// Application death: daemon 0 is marked unhealthy and leaves service
	// on its own loop, and daemon 1 ends up covering everything.
	left := make(chan error, 1)
	daemons[0].loop.Post(func() { left <- daemons[0].node.LeaveService() })
	if err := <-left; err != nil {
		t.Fatalf("leave service: %v", err)
	}
	waitFor("graceful departure", 15*time.Second, func() bool {
		return daemons[0].status().State == core.StateDetached && covered(daemons[1])
	})

	stopProber(0)
	stopProber(1)
	if v := mon.Violation(); v != nil {
		t.Fatalf("invariant violation on live cluster: %v", v)
	}
	if mon.Installs() == 0 {
		t.Fatal("monitor observed no view installations")
	}
	if reg.Counter("invariant_delivery_events_total", "").Value() == 0 {
		t.Fatal("monitor observed no deliveries")
	}
	if got := reg.Counter("invariant_violations_total", "").Value(); got != 0 {
		t.Fatalf("invariant_violations_total = %d, want 0", got)
	}
}
