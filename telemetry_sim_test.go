package wackamole_test

import (
	"testing"
	"time"

	"wackamole"
	"wackamole/internal/gcs"
	"wackamole/internal/health"
	"wackamole/internal/metrics"
	"wackamole/internal/obs"
)

// TestClusterTelemetry runs the full health plane under the deterministic
// simulator: three servers publish frames to the collector host, the
// suspicion matrix populates with zero steady-state suspicions, and a NIC
// failure drives every survivor's phi over the threshold at or before its
// fixed-timeout detection. Ordering is asserted through the monitor's own
// counters (health_detections_unsuspected_total stays zero); the live -race
// test asserts the same ordering through the HLC-stamped trace.
func TestClusterTelemetry(t *testing.T) {
	tracer := obs.New(16384, nil)
	reg := metrics.New()
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
		Tracer:            tracer,
		Metrics:           reg,
		TelemetryInterval: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Settle()
	c.RunFor(5 * time.Second)

	// Every node must have published frames carrying a fully populated
	// suspicion vector (2 peers each on a 3-node ring), none suspected.
	byNode := map[string]health.Frame{}
	for _, f := range c.TelemetryFrames {
		byNode[f.Node] = f // keep the latest
	}
	if len(byNode) != 3 {
		t.Fatalf("frames from %d nodes, want 3", len(byNode))
	}
	for node, f := range byNode {
		if len(f.Peers) != 2 {
			t.Fatalf("node %s suspicion vector has %d entries, want 2: %+v", node, len(f.Peers), f)
		}
		for _, p := range f.Peers {
			if p.Suspected || p.PhiMilli >= health.PhiMilli(health.Threshold) {
				t.Fatalf("steady-state false suspicion: %s -> %+v", node, p)
			}
			if p.Samples == 0 {
				t.Fatalf("node %s has no inter-arrival samples for %s", node, p.Peer)
			}
		}
		if f.State != "run" || !f.Mature || len(f.Members) != 3 {
			t.Fatalf("frame state wrong: %+v", f)
		}
		if f.Seq == 0 || f.FramesPublished == 0 {
			t.Fatalf("publisher counters missing: %+v", f)
		}
	}
	if n := sumCounter(reg, "health_suspicions_total"); n != 0 {
		t.Fatalf("health_suspicions_total = %v in steady state, want 0", n)
	}

	// Kill one server; both survivors must suspect it via phi strictly
	// before their fixed T-timeout detection confirms it.
	victim := string(c.Servers[2].Node.Daemon().ID())
	c.FailServer(2)
	c.Settle()

	if n := sumCounter(reg, "health_suspicions_total"); n < 2 {
		t.Fatalf("health_suspicions_total = %v after kill, want >= 2 (one per survivor)", n)
	}
	if n := sumCounter(reg, "health_detections_unsuspected_total"); n != 0 {
		t.Fatalf("%v T-timeout detections fired before phi crossed; shadow detector must lead", n)
	}
	if n := reg.Snapshot().MergedHistogram("health_detection_lead_seconds").Count(); n < 1 {
		t.Fatal("no detection-lead observation recorded")
	}

	// Post-failure frames from survivors reflect the reconfigured world:
	// a 2-member view with the victim dropped from the suspicion vector.
	var post *health.Frame
	for i := len(c.TelemetryFrames) - 1; i >= 0; i-- {
		f := c.TelemetryFrames[i]
		if f.Node != victim {
			post = &f
			break
		}
	}
	if post == nil {
		t.Fatal("no survivor frames after the kill")
	}
	if post.Generation == 0 || len(post.Members) != 2 || len(post.Peers) != 1 {
		t.Fatalf("post-failure frame not reconfigured: %+v", post)
	}
	for _, p := range post.Peers {
		if p.Peer == victim {
			t.Fatalf("victim still in the suspicion vector: %+v", post)
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
