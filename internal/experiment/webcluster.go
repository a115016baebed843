// Package experiment builds the paper's evaluation scenarios and
// regenerates every table and figure of §6 (plus the §5.2 router claim, the
// §7 baseline comparisons, and ablations of the §3.4 design choices) on the
// deterministic simulator. cmd/wacksim is its command-line front end;
// bench_test.go exposes the same runs as Go benchmarks.
package experiment

import (
	"fmt"
	"net/netip"
	"time"

	"wackamole"
	"wackamole/internal/gcs"
	"wackamole/internal/netsim"
	"wackamole/internal/probe"
)

// Service and client ports used by all scenarios.
const (
	ServicePort = 8080
	clientPort  = 9001
)

// clientAddr is the probing client's address on the external network.
var clientAddr = netip.MustParseAddr("192.168.1.50")

// WebCluster is the Figure 3 topology: N Wackamole web servers on one LAN,
// a router, and an external client probing one virtual address through it.
type WebCluster struct {
	*wackamole.Cluster
	ClientHost *netsim.Host
	Client     *probe.Client
	// Target is the probed virtual address.
	Target netip.Addr
}

// NewWebCluster builds the scenario with the paper's parameters (10 virtual
// addresses) unless mods say otherwise.
func NewWebCluster(seed int64, servers int, cfg gcs.Config, mods ...func(*wackamole.ClusterOptions)) (*WebCluster, error) {
	opts := wackamole.ClusterOptions{
		Seed:       seed,
		Servers:    servers,
		VIPs:       10,
		GCS:        cfg,
		WithRouter: true,
	}
	for _, mod := range mods {
		mod(&opts)
	}
	cluster, err := wackamole.NewCluster(opts)
	if err != nil {
		return nil, err
	}
	wc := &WebCluster{Cluster: cluster, Target: wackamole.VIPAddr(0)}
	for _, srv := range cluster.Servers {
		if err := probe.NewServer(srv.Host, ServicePort); err != nil {
			return nil, err
		}
	}
	wc.ClientHost = cluster.Net.NewHost("client")
	cnic := wc.ClientHost.AttachNIC(cluster.External, "eth0",
		netip.PrefixFrom(clientAddr, wackamole.ExternalSubnet.Bits()))
	wc.ClientHost.SetDefaultGateway(cnic, wackamole.RouterOutsideAddr)
	wc.Client, err = probe.NewClient(wc.ClientHost, probe.ClientConfig{
		Target:    netip.AddrPortFrom(wc.Target, ServicePort),
		LocalPort: clientPort,
	})
	if err != nil {
		return nil, err
	}
	return wc, nil
}

// WarmUp settles the cluster, starts the client and runs traffic long
// enough to populate every ARP cache on the path, then clears the client's
// statistics and advances by a seed-derived fraction of the heartbeat
// interval so the fault phase is uniformly distributed — the reason the
// paper's measured notification time ranges over (T−H, T].
func (wc *WebCluster) WarmUp(cfg gcs.Config) {
	wc.Settle()
	wc.Client.Start()
	wc.RunFor(time.Second)
	offset := time.Duration(wc.Sim.Rand().Int63n(int64(cfg.HeartbeatInterval)))
	wc.RunFor(offset)
	wc.Client.ResetStats()
	wc.RunFor(100 * time.Millisecond)
}

// MeasureInterruption runs until the client records a service interruption
// (or maxWait passes) and returns it.
func (wc *WebCluster) MeasureInterruption(maxWait time.Duration) (probe.Gap, error) {
	step := 50 * time.Millisecond
	for waited := time.Duration(0); waited < maxWait; waited += step {
		wc.RunFor(step)
		if gaps := wc.Client.Gaps(); len(gaps) > 0 {
			return gaps[0], nil
		}
	}
	return probe.Gap{}, fmt.Errorf("experiment: no interruption observed within %v", maxWait)
}
