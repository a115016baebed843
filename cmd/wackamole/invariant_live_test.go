package main

// Always-on invariants over a live (non-simulated) cluster: three daemons
// on loopback UDP, each booted from its configuration file by the daemon's
// own wiring and each on its own event-loop goroutine, share one online
// invariant.Monitor while status probes hammer the nodes, a member is
// killed abruptly and another leaves service. Run under -race this pins the
// monitor's claim to be the one piece of state concurrent nodes may share.

import (
	"sync"
	"testing"
	"time"

	"wackamole/internal/core"
	"wackamole/internal/invariant"
	"wackamole/internal/metrics"
)

func TestInvariantMonitorLiveCluster(t *testing.T) {
	peers := []string{"127.0.0.1:24930", "127.0.0.1:24931", "127.0.0.1:24932"}
	reg := metrics.New()
	mon := invariant.New(invariant.Config{
		Nodes:   len(peers),
		Metrics: reg,
		Name:    "live-test",
	})
	// Attach between build and start, so the monitor sees every event from
	// boot on.
	c := bootCluster(t, peers, liveConf(0), func(i int, d *daemon) { mon.Attach(i, d.node) })
	daemons := c.daemons

	// Status probes from extra goroutines for the whole run, so -race sees
	// monitor hooks and probes interleave. A probe posted to a closed loop
	// would never run, and one still inside status() when its daemon's loop
	// closes would wait forever: stopProber[i] returns once daemon i's
	// prober has exited, and runs before that daemon goes down.
	stopProber := make([]func(), len(daemons))
	for i, d := range daemons {
		stop, done := make(chan struct{}), make(chan struct{})
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
		stopProber[i] = sync.OnceFunc(func() { close(stop); <-done })
	}
	defer func() {
		for _, stop := range stopProber {
			stop()
		}
	}()

	c.waitFor("cluster formation", 15*time.Second, func() bool { return formed(daemons...) })

	// Abrupt kill: daemon 2's loop and socket vanish mid-protocol; the
	// survivors must re-form and re-cover every address.
	stopProber[2]()
	c.kill(2)
	c.waitFor("fail-over after abrupt kill", 15*time.Second, func() bool { return formed(daemons[:2]...) })

	// Application death: daemon 0 is marked unhealthy and leaves service
	// on its own loop, and daemon 1 ends up alone, covering everything.
	left := make(chan error, 1)
	daemons[0].loop.Post(func() { left <- daemons[0].node.LeaveService() })
	if err := <-left; err != nil {
		t.Fatalf("leave service: %v", err)
	}
	c.waitFor("graceful departure", 15*time.Second, func() bool {
		return daemons[0].status().State == core.StateDetached && formed(daemons[1])
	})

	stopProber[0]()
	stopProber[1]()
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
