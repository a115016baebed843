package wackamole_test

import (
	"slices"
	"testing"
	"time"

	"wackamole"
	"wackamole/internal/gcs"
	"wackamole/internal/health"
	"wackamole/internal/metrics"
	"wackamole/internal/obs"
)

// TestClusterShadowDetector runs the observe-only phi-accrual monitor under
// the deterministic simulator, installed on every server through OnNode.
// Nothing asks for a status or scrapes the registry: every crossing counted
// here was counted on the daemons' own scan ticks. Steady state must count
// no suspicion with every peer sampled; a server failure must drive every
// survivor's phi over the threshold at or before its fixed-timeout
// detection. Ordering is asserted through the monitor's own counters
// (health_detections_unsuspected_total stays zero); the live -race test
// asserts the same ordering through the HLC-stamped trace.
func TestClusterShadowDetector(t *testing.T) {
	tracer := obs.New(16384, nil)
	reg := metrics.New()
	monitors := make([]*health.Monitor, 3)
	// T = 4x the heartbeat interval: with the estimator's sigma floor of
	// mean/4, phi crosses the default threshold 8 near 2.9 heartbeats of
	// silence, comfortably ahead of the 4-heartbeat T timeout. (The tuned
	// Table 1 ratio of 2.5x leaves phi around 4.5 at T — a shadow detector
	// cannot lead there, which is itself a finding for ROADMAP item 4.)
	c, err := wackamole.NewCluster(wackamole.ClusterOptions{
		Seed:    7,
		Servers: 3,
		VIPs:    4,
		GCS: gcs.Config{
			FaultDetectTimeout: 800 * time.Millisecond,
			HeartbeatInterval:  200 * time.Millisecond,
			DiscoveryTimeout:   600 * time.Millisecond,
		},
		Tracer:  tracer,
		Metrics: reg,
		OnNode: func(i int, n *wackamole.Node) {
			monitors[i] = health.NewMonitor(health.Options{
				Node: string(n.Daemon().ID()), Metrics: n.Metrics(), Tracer: n.Tracer(),
			})
			n.SetHealth(monitors[i])
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Settle()
	c.RunFor(5 * time.Second)

	if n := sumCounter(reg, "health_suspicions_total"); n != 0 {
		t.Fatalf("health_suspicions_total = %v in steady state, want 0", n)
	}
	// Every monitor tracks both peers of the 3-node ring, each sampled.
	// (Snapshot evaluates too, so it is read only after the counters.)
	peersOf := func(i int) []string {
		var peers []string
		for _, ph := range monitors[i].Snapshot(c.Sim.Now()) {
			if ph.Samples == 0 {
				t.Fatalf("server %d has no inter-arrival samples for %s", i, ph.Peer)
			}
			peers = append(peers, ph.Peer)
		}
		return peers
	}
	for i := range monitors {
		if peers := peersOf(i); len(peers) != 2 {
			t.Fatalf("server %d tracks %v, want its 2 peers", i, peers)
		}
	}

	// Kill one server; both survivors must suspect it via phi at or before
	// their fixed T-timeout detection confirms it.
	victim := string(c.Servers[2].Node.Daemon().ID())
	c.FailServer(2)
	c.Settle()

	if n := sumCounter(reg, "health_suspicions_total"); n < 2 {
		t.Fatalf("health_suspicions_total = %v after kill, want >= 2 (one per survivor)", n)
	}
	if n := sumCounter(reg, "health_detections_unsuspected_total"); n != 0 {
		t.Fatalf("%v T-timeout detections fired before phi crossed; shadow detector must lead", n)
	}
	if lead := reg.Snapshot().MergedHistogram("health_detection_lead_seconds"); lead.Count() < 1 || lead.Sum <= 0 {
		t.Fatalf("detection lead %+v: want an observation, and phi ahead of T", lead)
	}
	// Each survivor traced its crossing on a scan tick strictly before any
	// T-timeout detection of its own, not at the detection instant.
	for i := range 2 {
		node := string(c.Servers[i].Node.Daemon().ID())
		var suspect, miss time.Time
		for _, ev := range tracer.Snapshot() {
			if ev.Node != node || ev.Detail != victim {
				continue
			}
			if ev.Kind == obs.KindPhiSuspect && suspect.IsZero() {
				suspect = ev.At
			}
			if ev.Kind == obs.KindHeartbeatMiss && miss.IsZero() {
				miss = ev.At
			}
		}
		if suspect.IsZero() || (!miss.IsZero() && !suspect.Before(miss)) {
			t.Fatalf("survivor %d: phi-suspect at %v, heartbeat-miss at %v; want the crossing first", i, suspect, miss)
		}
	}
	// The reconfigured survivors track only each other.
	for i := range 2 {
		if peers := peersOf(i); len(peers) != 1 || slices.Contains(peers, victim) {
			t.Fatalf("survivor %d tracks %v after the kill, want only the other survivor", i, peers)
		}
	}
}

// sumCounter totals a counter family across all label sets.
func sumCounter(reg *metrics.Registry, name string) float64 {
	fam := reg.Snapshot().Family(name)
	if fam == nil {
		return 0
	}
	var total float64
	for _, s := range fam.Series {
		total += s.Value
	}
	return total
}
