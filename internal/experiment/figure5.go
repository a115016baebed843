package experiment

import (
	"fmt"
	"strconv"
	"time"

	"wackamole/internal/experiment/runner"
	"wackamole/internal/gcs"
	"wackamole/internal/invariant"
)

// ConfigName labels the two Spread configurations of Table 1.
type ConfigName string

// The two evaluated configurations.
const (
	configDefault ConfigName = "default"
	configTuned   ConfigName = "tuned"
)

// NamedConfigs returns the paper's two configurations in presentation
// order.
func NamedConfigs() []struct {
	Name ConfigName
	Cfg  gcs.Config
} {
	return []struct {
		Name ConfigName
		Cfg  gcs.Config
	}{
		{configDefault, gcs.DefaultConfig()},
		{configTuned, gcs.TunedConfig()},
	}
}

// figure5Sizes are the cluster sizes of the paper's Figure 5.
var figure5Sizes = []int{2, 4, 6, 8, 10, 12}

// Figure5Trial measures one availability interruption: a web cluster of n
// servers maintaining 10 virtual addresses, a client probing one of them
// every 10ms, and a fault disconnecting the interface of the server
// covering it.
func Figure5Trial(seed int64, n int, cfg gcs.Config) (runner.Sample, error) {
	return figure5Trial(seed, n, cfg, false, false)
}

// settleTime is how long a monitored probe trial's cluster runs after the
// measurement to reach a resting state before the settled-state oracles
// probe it.
func settleTime(cfg gcs.Config) time.Duration {
	return 4*(cfg.FaultDetectTimeout+cfg.DiscoveryTimeout) + 2*time.Second
}

// figure5Trial is Figure5Trial with the optional observation planes: when
// trace is set the whole cluster (network, daemons, engines) records
// structured events under virtual time, and the sample carries the stream
// plus its fail-over phase breakdown; when invariants is set the sample
// carries the first violation of any oracle.
func figure5Trial(seed int64, n int, cfg gcs.Config, trace, invariants bool) (runner.Sample, error) {
	p := armPlanes(trace, invariants, invariant.Config{Nodes: n})
	wc, err := NewWebCluster(seed, n, cfg, p.cluster)
	if err != nil {
		return runner.Sample{}, err
	}
	p.setClock(wc.Sim)
	wc.WarmUp(cfg)
	victim, holders := wc.Owner(wc.Target)
	if holders != 1 {
		return runner.Sample{}, fmt.Errorf("experiment: %d holders of the target before fault", holders)
	}
	wc.FailServer(victim)
	maxWait := 4 * (cfg.FaultDetectTimeout + cfg.DiscoveryTimeout)
	gap, err := wc.MeasureInterruption(maxWait)
	if err != nil {
		return runner.Sample{}, err
	}
	if gap.To == gap.From {
		return runner.Sample{}, fmt.Errorf("experiment: service resumed on the failed server %q", gap.To)
	}
	sample := runner.Sample{Value: gap.Duration(), Metrics: clusterMetrics(wc.Cluster)}
	sample.Violation = p.verify(wc.Cluster, settleTime(cfg))
	p.attach(&sample, gap.Start, gap.End, wc.Target.String())
	return sample, nil
}

// figure5 sweeps cluster size × configuration, reproducing the paper's
// Figure 5 ("Average Availability Interruption with Varying Cluster Size").
// Grid.Sizes restricts it to the given cluster sizes (CI uses a single-point
// run to produce a small sample trace artifact).
var figure5 = Experiment{
	Name:  "figure5",
	Title: "## Figure 5 — Average availability interruption vs cluster size",
	Unit:  "interruption",
	Trace: true, Invariants: true, Sizes: true,
	Points: func(g Grid) []Point {
		sizes := g.Sizes
		if sizes == nil {
			sizes = figure5Sizes
		}
		var points []Point
		for _, nc := range NamedConfigs() {
			for _, n := range sizes {
				points = append(points, Point{
					Label:      fmt.Sprintf("%s/n=%d", nc.Name, n),
					Cols:       []string{string(nc.Name), strconv.Itoa(n)},
					SeedOffset: int64(n),
					Run: func(seed int64) (runner.Sample, error) {
						return figure5Trial(seed, n, nc.Cfg, g.trace, g.invariants)
					},
				})
			}
		}
		return points
	},
	// The two series of the paper's figure.
	Render: rowTable(
		[]string{"config", "cluster size", "trials", "mean interruption", "min", "p50", "p99", "max", "stddev"},
		func(r Row) []string {
			return []string{strconv.Itoa(r.Stat.N),
				seconds(r.Stat.Mean), seconds(r.Stat.Min), seconds(r.Stat.P50), seconds(r.Stat.P99),
				seconds(r.Stat.Max), seconds(r.Stat.StdDev)}
		}),
}

func gracefulTrial(seed int64, n int, cfg gcs.Config, invariants bool) (runner.Sample, error) {
	p := armPlanes(false, invariants, invariant.Config{Nodes: n})
	wc, err := NewWebCluster(seed, n, cfg, p.cluster)
	if err != nil {
		return runner.Sample{}, err
	}
	p.setClock(wc.Sim)
	wc.WarmUp(cfg)
	victim, holders := wc.Owner(wc.Target)
	if holders != 1 {
		return runner.Sample{}, fmt.Errorf("experiment: %d holders of the target before leave", holders)
	}
	if err := wc.Servers[victim].Node.LeaveService(); err != nil {
		return runner.Sample{}, err
	}
	wc.RunFor(2 * time.Second)
	if _, holders := wc.Owner(wc.Target); holders != 1 {
		return runner.Sample{}, fmt.Errorf("experiment: target not reallocated after graceful leave")
	}
	// The interruption may be too short to register as a gap; the largest
	// inter-response spacing bounds it either way.
	sample := runner.Sample{Value: wc.Client.MaxGap(), Metrics: clusterMetrics(wc.Cluster)}
	sample.Violation = p.verify(wc.Cluster, settleTime(cfg))
	return sample, nil
}

// graceful sweeps the §6 voluntary-departure measurement over cluster
// sizes, under the tuned configuration.
var graceful = Experiment{
	Name:       "graceful",
	Title:      "## §6 — Availability interruption on voluntary (graceful) departure",
	Unit:       "interruption",
	Invariants: true,
	Points: func(g Grid) []Point {
		cfg := gcs.TunedConfig()
		var points []Point
		for _, n := range []int{2, 4, 8, 12} {
			points = append(points, Point{
				Label:      fmt.Sprintf("n=%d", n),
				Cols:       []string{strconv.Itoa(n)},
				SeedOffset: int64(n) * 13,
				Run: func(seed int64) (runner.Sample, error) {
					return gracefulTrial(seed, n, cfg, g.invariants)
				},
			})
		}
		return points
	},
	Render: rowTable(
		[]string{"cluster size", "trials", "mean interruption", "min", "max", "errors"},
		func(r Row) []string {
			ms := func(d time.Duration) string { return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000) }
			return []string{strconv.Itoa(r.Stat.N), ms(r.Stat.Mean), ms(r.Stat.Min), ms(r.Stat.Max), strconv.Itoa(r.Errors)}
		}),
}
