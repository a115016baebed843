package experiment

import (
	"fmt"
	"time"

	"wackamole"
	"wackamole/internal/experiment/runner"
	"wackamole/internal/gcs"
	"wackamole/internal/netsim"
)

// arpSpoofTrial measures the fail-over interruption with and without the
// §5.1 gratuitous-ARP notification. Without it, the router keeps forwarding
// to the failed server's MAC until its ARP cache entry expires (ttl).
func arpSpoofTrial(seed int64, spoof bool, ttl time.Duration) (runner.Sample, error) {
	cfg := gcs.TunedConfig()
	wc, err := NewWebCluster(seed, 4, cfg, func(o *wackamole.ClusterOptions) {
		o.DisableARPSpoof = !spoof
		o.RouterARPTTL = ttl
	})
	if err != nil {
		return runner.Sample{}, err
	}
	wc.WarmUp(cfg)
	// Randomize the fault phase against the ARP entry's lifetime too.
	wc.RunFor(time.Duration(wc.Sim.Rand().Int63n(int64(ttl))))
	victim, holders := wc.Owner(wc.Target)
	if holders != 1 {
		return runner.Sample{}, fmt.Errorf("experiment: %d holders before fault", holders)
	}
	wc.FailServer(victim)
	maxWait := 2*ttl + 4*(cfg.FaultDetectTimeout+cfg.DiscoveryTimeout)
	gap, err := wc.MeasureInterruption(maxWait)
	if err != nil {
		return runner.Sample{}, err
	}
	return runner.Sample{Value: gap.Duration(), Metrics: clusterMetrics(wc.Cluster)}, nil
}

// conflictReleaseTrial integrates the amount of duplicate coverage
// (address-seconds during which a virtual address is answerable on both
// sides of a healed partition) for the eager release of §3.4 versus the
// lazy variant that waits for GATHER to complete.
func conflictReleaseTrial(seed int64, lazy bool) (runner.Sample, error) {
	// A congested-LAN latency profile spreads the STATE_MSG exchange over a
	// measurable window; on a quiet LAN both variants resolve within one
	// token rotation and the difference drowns in the (identical)
	// detection+discovery time.
	seg := netsim.SegmentConfig{LatencyMin: 20 * time.Millisecond, LatencyMax: 50 * time.Millisecond}
	c, err := wackamole.NewCluster(wackamole.ClusterOptions{
		Seed:                seed,
		Servers:             6,
		VIPs:                20,
		GCS:                 gcs.TunedConfig(),
		LazyConflictRelease: lazy,
		Segment:             seg,
	})
	if err != nil {
		return runner.Sample{}, err
	}
	c.Settle()
	c.Partition([]int{0, 1, 2}, []int{3, 4, 5})
	c.RunFor(10 * time.Second)
	c.Heal()
	var duplicate time.Duration
	const step = time.Millisecond
	for elapsed := time.Duration(0); elapsed < 10*time.Second; elapsed += step {
		c.RunFor(step)
		for _, vip := range c.VIPs() {
			if _, holders := c.Owner(vip); holders > 1 {
				duplicate += step
			}
		}
	}
	return runner.Sample{Value: duplicate, Metrics: clusterMetrics(c)}, nil
}

// balanceChurnTrial puts the cluster through fail/restore churn and
// reports the final allocation skew (max−min addresses per live server),
// with or without the §3.4 re-balancing procedure.
func balanceChurnTrial(seed int64, disabled bool) (runner.Sample, error) {
	c, err := wackamole.NewCluster(wackamole.ClusterOptions{
		Seed:           seed,
		Servers:        4,
		VIPs:           12,
		GCS:            gcs.TunedConfig(),
		BalanceTimeout: 5 * time.Second,
		DisableBalance: disabled,
	})
	if err != nil {
		return runner.Sample{}, err
	}
	c.Settle()
	for _, victim := range []int{3, 2} {
		c.FailServer(victim)
		c.RunFor(8 * time.Second)
		c.RestoreServer(victim)
		c.RunFor(20 * time.Second)
	}
	cov := c.CoverageByServer()
	minC, maxC := cov[0], cov[0]
	for _, n := range cov[1:] {
		if n < minC {
			minC = n
		}
		if n > maxC {
			maxC = n
		}
	}
	// Encode the skew as a duration of whole units so the shared Stat
	// machinery applies (1 "second" = 1 address of skew).
	return runner.Sample{Value: time.Duration(maxC-minC) * time.Second, Metrics: clusterMetrics(c)}, nil
}

// maturityBootTrial boots a cluster one server every two seconds and counts
// address movements (releases) during the boot window — the churn the §3.4
// maturity bootstrap exists to avoid. Re-balancing runs aggressively, as a
// production cluster would configure for steady state.
func maturityBootTrial(seed int64, bootstrap bool) (runner.Sample, error) {
	c, err := wackamole.NewCluster(wackamole.ClusterOptions{
		Seed:           seed,
		Servers:        5,
		VIPs:           10,
		GCS:            gcs.TunedConfig(),
		Bootstrap:      bootstrap,
		MatureTimeout:  12 * time.Second,
		BalanceTimeout: 3 * time.Second,
		StartStagger:   2 * time.Second,
	})
	if err != nil {
		return runner.Sample{}, err
	}
	releases := 0
	for _, srv := range c.Servers {
		srv.Node.Engine().AddOwnershipHook(func(_ string, owned bool, _ string) {
			if !owned {
				releases++
			}
		})
	}
	c.RunFor(25 * time.Second)
	// The cluster must end fully covered either way.
	for _, vip := range c.VIPs() {
		if _, holders := c.Owner(vip); holders != 1 {
			return runner.Sample{}, fmt.Errorf("experiment: %v held by %d after boot", vip, holders)
		}
	}
	return runner.Sample{Value: time.Duration(releases) * time.Second, Metrics: clusterMetrics(c)}, nil
}

// ablations runs every design-choice experiment in presentation order.
// Each point's unit is the quantity its trial measures; metrics that are
// counts are encoded as whole seconds by their trials and rendered as plain
// numbers.
var ablations = Experiment{
	Name:  "ablations",
	Title: "## Ablations — §3.4/§5.1 design choices",
	Points: func(g Grid) []Point {
		const ttl = 30 * time.Second
		var points []Point
		for _, st := range []struct {
			experiment, variant, metric string
			f                           runner.Trial
		}{
			{"arp-spoofing (§5.1)", "spoof on", "client interruption",
				func(s int64) (runner.Sample, error) { return arpSpoofTrial(s, true, ttl) }},
			{"arp-spoofing (§5.1)", "spoof off (30s ARP TTL)", "client interruption",
				func(s int64) (runner.Sample, error) { return arpSpoofTrial(s, false, ttl) }},
			{"conflict release (§3.4)", "eager", "duplicate coverage (addr·time)",
				func(s int64) (runner.Sample, error) { return conflictReleaseTrial(s, false) }},
			{"conflict release (§3.4)", "lazy (end of GATHER)", "duplicate coverage (addr·time)",
				func(s int64) (runner.Sample, error) { return conflictReleaseTrial(s, true) }},
			{"re-balancing (§3.4)", "enabled", "allocation skew (addresses)",
				func(s int64) (runner.Sample, error) { return balanceChurnTrial(s, false) }},
			{"re-balancing (§3.4)", "disabled", "allocation skew (addresses)",
				func(s int64) (runner.Sample, error) { return balanceChurnTrial(s, true) }},
			{"maturity bootstrap (§3.4)", "enabled", "boot-time address movements",
				func(s int64) (runner.Sample, error) { return maturityBootTrial(s, true) }},
			{"maturity bootstrap (§3.4)", "disabled", "boot-time address movements",
				func(s int64) (runner.Sample, error) { return maturityBootTrial(s, false) }},
		} {
			points = append(points, Point{
				Label: st.experiment + "/" + st.variant,
				Cols:  []string{st.experiment, st.variant, st.metric},
				Unit:  st.metric,
				Run:   st.f,
			})
		}
		return points
	},
	Render: rowTable([]string{"experiment", "variant", "metric", "mean", "min", "max"},
		func(r Row) []string {
			format := seconds
			if r.Unit == "allocation skew (addresses)" || r.Unit == "boot-time address movements" {
				format = func(d time.Duration) string { return fmt.Sprintf("%.1f", d.Seconds()) }
			}
			return []string{format(r.Stat.Mean), format(r.Stat.Min), format(r.Stat.Max)}
		}),
}
