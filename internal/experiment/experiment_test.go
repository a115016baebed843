package experiment

import (
	"testing"
	"time"

	"wackamole/internal/gcs"
)

func TestFigure5TrialTunedMatchesPaperBand(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		s, err := Figure5Trial(seed, 4, gcs.TunedConfig())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Paper: 2s–2.4s plus small protocol overheads.
		if s.Value < 1900*time.Millisecond || s.Value > 2800*time.Millisecond {
			t.Fatalf("seed %d: tuned interruption %v outside the paper band", seed, s.Value)
		}
	}
}

func TestFigure5TrialDefaultMatchesPaperBand(t *testing.T) {
	s, err := Figure5Trial(5, 4, gcs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 10s–12s plus small protocol overheads.
	if s.Value < 9500*time.Millisecond || s.Value > 13*time.Second {
		t.Fatalf("default interruption %v outside the paper band", s.Value)
	}
}

func TestFigure5TrialReportsMetrics(t *testing.T) {
	s, err := Figure5Trial(2, 4, gcs.TunedConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := s.Metrics
	if m.MembershipsInstalled == 0 || m.TokenRotations == 0 || m.FramesSent == 0 {
		t.Fatalf("trial metrics missing protocol activity: %+v", m)
	}
	if m.ViewChanges == 0 {
		t.Fatalf("a fail-over trial must record a view change: %+v", m)
	}
	if m.ARPSpoofs == 0 {
		t.Fatalf("a take-over must spoof ARP (§5.1): %+v", m)
	}
	if m.Acquires == 0 {
		t.Fatalf("a take-over must acquire addresses: %+v", m)
	}
}

func TestFaultPhaseSpreadsDetectionTime(t *testing.T) {
	// With the fault phase uniform in the heartbeat interval, the measured
	// interruptions should not all be identical.
	var min, max time.Duration
	for seed := int64(10); seed < 18; seed++ {
		s, err := Figure5Trial(seed, 2, gcs.TunedConfig())
		if err != nil {
			t.Fatal(err)
		}
		d := s.Value
		if min == 0 || d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	if max-min < 50*time.Millisecond {
		t.Fatalf("interruptions suspiciously uniform: min=%v max=%v", min, max)
	}
	if max-min > gcs.TunedConfig().HeartbeatInterval+200*time.Millisecond {
		t.Fatalf("interruption spread %v exceeds the heartbeat interval", max-min)
	}
}

func TestGracefulTrialIsMilliseconds(t *testing.T) {
	s, err := gracefulTrial(3, 3, gcs.TunedConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	// §6: typically ~10ms, conservative upper bound 250ms.
	if s.Value > 250*time.Millisecond {
		t.Fatalf("graceful-leave interruption %v exceeds the paper's 250ms bound", s.Value)
	}
	if s.Value < probeFloor() {
		t.Fatalf("interruption %v below the probe interval floor", s.Value)
	}
}

func probeFloor() time.Duration { return 9 * time.Millisecond }

func TestTable1TrialBands(t *testing.T) {
	cfg := gcs.TunedConfig()
	s, err := Table1Trial(7, 5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lo := cfg.FaultDetectTimeout - cfg.HeartbeatInterval + cfg.DiscoveryTimeout - 100*time.Millisecond
	hi := cfg.FaultDetectTimeout + cfg.DiscoveryTimeout + 500*time.Millisecond
	if s.Value < lo || s.Value > hi {
		t.Fatalf("notification delay %v outside [%v, %v]", s.Value, lo, hi)
	}
}

func TestSummarize(t *testing.T) {
	s := summarize([]time.Duration{time.Second, 3 * time.Second, 2 * time.Second})
	if s.N != 3 || s.Mean != 2*time.Second || s.Min != time.Second || s.Max != 3*time.Second {
		t.Fatalf("summarize = %+v", s)
	}
	if s.StdDev != time.Second {
		t.Fatalf("StdDev = %v, want 1s", s.StdDev)
	}
	if s.P50 != 2*time.Second || s.P99 != 3*time.Second {
		t.Fatalf("percentiles = p50 %v p99 %v", s.P50, s.P99)
	}
	if z := summarize(nil); z.N != 0 {
		t.Fatalf("summarize(nil) = %+v", z)
	}
}

func TestPercentiles(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 100; i++ {
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	s := summarize(ds)
	if s.P50 != 50*time.Millisecond {
		t.Fatalf("P50 = %v, want 50ms", s.P50)
	}
	if s.P99 != 99*time.Millisecond {
		t.Fatalf("P99 = %v, want 99ms", s.P99)
	}
	if one := summarize(ds[:1]); one.P50 != time.Millisecond || one.P99 != time.Millisecond {
		t.Fatalf("single-sample percentiles = %+v", one)
	}
}

func TestSeedsDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for _, s := range seeds(42, 10) {
		if seen[s] {
			t.Fatal("duplicate seed")
		}
		seen[s] = true
	}
}

// TestPartitionWithRouterServesMajoritySide pins the Figure 3 behaviour
// under a partition: the component that still reaches the router keeps
// serving every address (each side covers the full set; the client can only
// see the router's side).
func TestPartitionWithRouterServesMajoritySide(t *testing.T) {
	cfg := gcs.TunedConfig()
	wc, err := NewWebCluster(21, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wc.WarmUp(cfg)
	before := wc.Client.Responses()
	if before == 0 {
		t.Fatal("no traffic before the partition")
	}
	// Servers 0,1 stay with the router; 2,3 are cut off.
	wc.Partition([]int{0, 1}, []int{2, 3})
	wc.RunFor(10 * time.Second)
	wc.Client.ResetStats()
	wc.RunFor(2 * time.Second)
	if wc.Client.Responses() < 150 {
		t.Fatalf("router-side component barely serving: %d responses in 2s", wc.Client.Responses())
	}
	for name := range wc.Client.ByServer() {
		if name != "server00" && name != "server01" {
			t.Fatalf("response from the cut-off side: %v", wc.Client.ByServer())
		}
	}
	wc.Heal()
	wc.RunFor(15 * time.Second)
	if _, holders := wc.Owner(wc.Target); holders != 1 {
		t.Fatalf("target held by %d servers after heal", holders)
	}
}
