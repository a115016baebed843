package experiment

import (
	"fmt"
	"strconv"
	"time"

	"wackamole"
	"wackamole/internal/experiment/runner"
	"wackamole/internal/gcs"
)

// Table1Trial measures one membership-notification delay: disconnect a
// member at a seed-derived phase of the heartbeat cycle and time a
// survivor's installation of the shrunken membership.
func Table1Trial(seed int64, n int, cfg gcs.Config) (runner.Sample, error) {
	c, err := wackamole.NewCluster(wackamole.ClusterOptions{
		Seed:    seed,
		Servers: n,
		VIPs:    10,
		GCS:     cfg,
	})
	if err != nil {
		return runner.Sample{}, err
	}
	c.Settle()
	// Uniformly distribute the fault phase within the heartbeat interval.
	c.RunFor(time.Duration(c.Sim.Rand().Int63n(int64(cfg.HeartbeatInterval))))

	var installedAt time.Duration
	observer := c.Servers[0].Node.Daemon()
	observer.SetMembershipHandler(func(_ gcs.RingID, members []gcs.DaemonID) {
		if len(members) == n-1 && installedAt == 0 {
			installedAt = c.Sim.Elapsed()
		}
	})
	faultAt := c.Sim.Elapsed()
	c.FailServer(n - 1)
	maxWait := 3 * (cfg.FaultDetectTimeout + cfg.DiscoveryTimeout)
	for waited := time.Duration(0); waited < maxWait && installedAt == 0; waited += 100 * time.Millisecond {
		c.RunFor(100 * time.Millisecond)
	}
	if installedAt == 0 {
		return runner.Sample{}, fmt.Errorf("experiment: no membership installed within %v", maxWait)
	}
	return runner.Sample{Value: installedAt - faultAt, Metrics: clusterMetrics(c)}, nil
}

// table1 reproduces the paper's Table 1, augmenting the configured timeout
// values with the measured membership-notification time each induces: the
// delay between a fault and the surviving daemons installing the new
// configuration. The paper predicts [T−H, T] + D: 10–12s for the defaults,
// 2–2.4s tuned. Each row's Extra carries the three configured timeouts (the
// columns of Table 1) and the predicted notification bounds.
var table1 = Experiment{
	Name:  "table1",
	Title: "## Table 1 — Spread timeout tuning and induced notification time",
	Unit:  "notification",
	Points: func(g Grid) []Point {
		const n = 5
		var points []Point
		for _, nc := range NamedConfigs() {
			cfg := nc.Cfg
			extra := map[string]float64{
				"fault_detect_s":  cfg.FaultDetectTimeout.Seconds(),
				"heartbeat_s":     cfg.HeartbeatInterval.Seconds(),
				"discovery_s":     cfg.DiscoveryTimeout.Seconds(),
				"predicted_min_s": (cfg.FaultDetectTimeout - cfg.HeartbeatInterval + cfg.DiscoveryTimeout).Seconds(),
				"predicted_max_s": (cfg.FaultDetectTimeout + cfg.DiscoveryTimeout).Seconds(),
			}
			points = append(points, Point{
				Label: string(nc.Name),
				Run:   func(seed int64) (runner.Sample, error) { return Table1Trial(seed, n, cfg) },
				Extra: func(Row) map[string]float64 { return extra },
			})
		}
		return points
	},
	// Mirrors the layout of the paper's Table 1 — one column per
	// configuration — with the measured lines appended.
	Render: func(rows []Row) string {
		header := []string{"parameter / measurement", "Default Spread", "Tuned Spread"}
		var cells [][]string
		line := func(label string, f func(Row) string) {
			cs := []string{label}
			for _, r := range rows {
				cs = append(cs, f(r))
			}
			cells = append(cells, cs)
		}
		timeout := func(label, key string) {
			line(label, func(r Row) string { return fmt.Sprintf("%g", r.Extra[key]) })
		}
		timeout("Fault-detection timeout (s)", "fault_detect_s")
		timeout("Distributed heartbeat timeout (s)", "heartbeat_s")
		timeout("Discovery timeout (s)", "discovery_s")
		line("Predicted notification range (s)", func(r Row) string {
			return fmt.Sprintf("%g – %g", r.Extra["predicted_min_s"], r.Extra["predicted_max_s"])
		})
		line("Measured notification mean", func(r Row) string { return seconds(r.Stat.Mean) })
		line("Measured notification min", func(r Row) string { return seconds(r.Stat.Min) })
		line("Measured notification p50", func(r Row) string { return seconds(r.Stat.P50) })
		line("Measured notification p99", func(r Row) string { return seconds(r.Stat.P99) })
		line("Measured notification max", func(r Row) string { return seconds(r.Stat.Max) })
		line("Trials", func(r Row) string { return strconv.Itoa(r.Stat.N) })
		return Table(header, cells)
	},
}
