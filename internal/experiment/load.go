package experiment

import (
	"fmt"
	"time"

	"wackamole/internal/experiment/runner"
	"wackamole/internal/gcs"
)

// load.go quantifies the paper's §6 remark that on highly loaded machines
// the daemons should run with (real-time) priority "in order to avoid false
// positive errors": as scheduling delay approaches the heartbeat interval,
// healthy daemons start missing each other's heartbeats and the cluster
// reconfigures without any actual fault.

// loadTrial runs a fault-free web cluster whose servers suffer scheduling
// jitter over the window. The sample's value is the largest client-visible
// gap; its metrics are the in-window activity delta, whose ViewChanges
// count the spurious reconfigurations.
func loadTrial(seed int64, jitter time.Duration, window time.Duration) (runner.Sample, error) {
	cfg := gcs.TunedConfig()
	wc, err := NewWebCluster(seed, 4, cfg)
	if err != nil {
		return runner.Sample{}, err
	}
	wc.Settle()
	before := clusterMetrics(wc.Cluster)
	// Load appears on the servers only; the client and router machines
	// (the measurement apparatus) stay unloaded.
	for _, srv := range wc.Cluster.Servers {
		srv.Host.SetProcessingJitter(jitter)
	}
	wc.Client.Start()
	wc.RunFor(time.Second)
	wc.Client.ResetStats()
	wc.RunFor(window)
	return runner.Sample{
		Value:   wc.Client.MaxGap(),
		Metrics: metricsDelta(before, clusterMetrics(wc.Cluster)),
	}, nil
}

// loadSensitivity sweeps the per-host scheduling delay bound (0 models
// daemons running at real-time priority). The heartbeat interval (400ms
// tuned) is the natural scale: false positives appear as the jitter
// approaches the fault-detection margin (T − H = 600ms). The statistics are
// the largest client-visible inter-response gap (service hiccups caused
// purely by the false positives); Metrics covers the observation window
// only, so its ViewChanges are the false reconfigurations, and Extra reports
// their mean per fault-free minute.
var loadSensitivity = Experiment{
	Name:  "load",
	Title: "## §6 — Load sensitivity: false failure detections vs scheduling delay",
	Unit:  "max_client_gap",
	Points: func(g Grid) []Point {
		const window = 60 * time.Second
		var points []Point
		for _, j := range []time.Duration{0, 100 * time.Millisecond, 300 * time.Millisecond, 600 * time.Millisecond} {
			points = append(points, Point{
				Label: fmt.Sprintf("jitter=%v", j),
				Cols:  []string{j.String()},
				Run:   func(seed int64) (runner.Sample, error) { return loadTrial(seed, j, window) },
				Extra: func(r Row) map[string]float64 {
					return map[string]float64{"false_reconfigs_per_min": float64(r.Metrics.ViewChanges) / float64(r.Stat.N)}
				},
			})
		}
		return points
	},
	Render: rowTable(
		[]string{"scheduling jitter", "false reconfigurations / min", "max client gap (mean)", "max client gap (max)"},
		func(r Row) []string {
			return []string{fmt.Sprintf("%.1f", r.Extra["false_reconfigs_per_min"]), seconds(r.Stat.Mean), seconds(r.Stat.Max)}
		}),
}
