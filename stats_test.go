package wackamole_test

import (
	"sync"
	"testing"
	"time"

	"wackamole"
	"wackamole/internal/gcs"
)

// TestStatsConcurrentReadsDuringViewChange polls every node's daemon and
// engine counters from dedicated goroutines while the simulation drives a
// fail-over (membership change, state exchange, reallocation). Stats() is
// documented as safe from any goroutine — the administrative channel and the
// /metrics endpoint both read it off-loop — so this test exists
// to fail under -race if the counters ever regress to unsynchronized fields.
func TestStatsConcurrentReadsDuringViewChange(t *testing.T) {
	c := newCluster(t, wackamole.ClusterOptions{Seed: 7, Servers: 4, VIPs: 8})
	c.Settle()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, srv := range c.Servers {
		srv := srv
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = srv.Node.Daemon().Stats()
				_ = srv.Node.Engine().Stats()
				time.Sleep(time.Millisecond)
			}
		}()
	}

	vip := c.VIPs()[0]
	victim, _ := c.Owner(vip)
	c.FailServer(victim)
	c.RunFor(10 * time.Second)
	close(stop)
	wg.Wait()

	if _, holders := c.Owner(vip); holders != 1 {
		t.Fatalf("vip %v held by %d servers after fail-over", vip, holders)
	}
	// The fail-over must have moved the counters the readers were polling.
	var ds gcs.Stats
	var acquires uint64
	for i, srv := range c.Servers {
		if i == victim {
			continue
		}
		ds.Merge(srv.Node.Daemon().Stats())
		acquires += srv.Node.Engine().Stats().Acquires
	}
	if ds.MembershipsInstalled == 0 || ds.Reconfigurations == 0 {
		t.Fatalf("no membership activity recorded: %+v", ds)
	}
	if acquires == 0 {
		t.Fatal("no acquisitions recorded despite a fail-over")
	}
}
