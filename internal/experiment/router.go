package experiment

import (
	"fmt"
	"net/netip"
	"time"

	"wackamole"
	"wackamole/internal/core"
	"wackamole/internal/experiment/runner"
	"wackamole/internal/gcs"
	"wackamole/internal/netsim"
	"wackamole/internal/probe"
	"wackamole/internal/rip"
	"wackamole/internal/router"
	"wackamole/internal/sim"
)

// RouterMode selects between the two §5.2 setups.
type RouterMode string

// The two setups the paper contrasts.
const (
	// RouterModeNaive: only the active fail-over router participates in the
	// dynamic routing protocol; after a take-over the new router must wait
	// for the next periodic advertisement — "this usually takes around 30
	// seconds".
	RouterModeNaive RouterMode = "naive"
	// RouterModeAdvertiseAll: all fail-over routers participate
	// continuously and advertise the same internal networks, so a take-over
	// completes as soon as Wackamole reassigns the virtual addresses.
	RouterModeAdvertiseAll RouterMode = "advertise-all"
)

// Figure-4-style address plan.
var (
	extVIP       = netip.MustParseAddr("198.51.100.1")
	webVIP       = netip.MustParseAddr("10.1.0.1")
	webNetPrefix = netip.MustParsePrefix("10.1.0.0/24")
)

// virtualRouterScenario is the Figure 4 topology: two physical routers
// acting as one virtual router between an external network (with an
// upstream RIP router towards the client) and an internal web network.
type virtualRouterScenario struct {
	sim *sim.Sim
	net *netsim.Network
	// routers are the two fail-over routers as a fault schedule numbers
	// them, servers 0 and 1, each with its group-communication interface on
	// webNet.
	routers []*wackamole.Server
	webNet  *netsim.Segment
	client  *probe.Client
	// server and clientHost are the endpoints of the probed path; the
	// request-level availability trial attaches a flow server and a load
	// engine to them.
	server     *netsim.Host
	clientHost *netsim.Host
}

// metrics snapshots the scenario's protocol activity: network-wide traffic
// plus the two fail-over routers' daemon and engine counters.
func (sc *virtualRouterScenario) metrics() runner.Metrics {
	m := networkMetrics(sc.net)
	for _, r := range sc.routers {
		nodeMetrics(&m, r.Node)
	}
	return m
}

// newVirtualRouterScenario builds (and starts) the topology. The optional
// onNode callbacks run for each fail-over router's node after it is built
// and before it starts — the attachment window invariant monitors need.
func newVirtualRouterScenario(seed int64, mode RouterMode, cfg gcs.Config, ripCfg rip.Config, onNode ...func(i int, n *wackamole.Node)) (*virtualRouterScenario, error) {
	s := sim.New(seed)
	nw := netsim.New(s)
	segCfg := netsim.DefaultSegmentConfig()
	clientNet := nw.NewSegment("client", segCfg)
	extNet := nw.NewSegment("ext", segCfg)
	webNet := nw.NewSegment("web", segCfg)

	// Upstream router: connects the client network to the external network
	// and participates in the routing protocol.
	u := nw.NewHost("upstream")
	u.AttachNIC(clientNet, "c", netip.MustParsePrefix("203.0.113.1/24"))
	uExt := u.AttachNIC(extNet, "e", netip.MustParsePrefix("198.51.100.2/24"))
	u.EnableForwarding()
	// Static route towards the internal network via the virtual router.
	u.AddRoute(webNetPrefix, uExt, extVIP)
	uRIP, err := rip.New(u, ripCfg)
	if err != nil {
		return nil, err
	}
	uRIP.Start()

	sc := &virtualRouterScenario{sim: s, net: nw, webNet: webNet}

	// The indivisible virtual address group spanning both networks (§5.2).
	group := core.VIPGroup{Name: "vrouter", Addrs: []netip.Addr{extVIP, webVIP}}
	participation := router.ParticipateAlways
	if mode == RouterModeNaive {
		participation = router.ParticipateWhenActive
	}
	for i := 0; i < 2; i++ {
		fr := nw.NewHost(fmt.Sprintf("fr%d", i+1))
		fr.AttachNIC(extNet, "ext", netip.MustParsePrefix(fmt.Sprintf("198.51.100.%d/24", 3+i)))
		webNIC := fr.AttachNIC(webNet, "web", netip.MustParsePrefix(fmt.Sprintf("10.1.0.%d/24", 2+i)))

		pr, err := router.New(router.Options{
			Host:          fr,
			GCSNIC:        webNIC,
			GCS:           cfg,
			Group:         group,
			RIP:           ripCfg,
			Participation: participation,
			OnNode: func(n *wackamole.Node) {
				for _, f := range onNode {
					f(i, n)
				}
			},
		})
		if err != nil {
			return nil, err
		}
		if err := pr.Start(); err != nil {
			return nil, err
		}
		sc.routers = append(sc.routers, &wackamole.Server{Host: fr, NIC: webNIC, Node: pr.Node})
	}

	// Internal web server, reached through the virtual router.
	server := nw.NewHost("webserver")
	srvNIC := server.AttachNIC(webNet, "eth0", netip.MustParsePrefix("10.1.0.10/24"))
	server.SetDefaultGateway(srvNIC, webVIP)
	if err := probe.NewServer(server, ServicePort); err != nil {
		return nil, err
	}
	sc.server = server

	// External client behind the upstream router.
	client := nw.NewHost("client")
	cNIC := client.AttachNIC(clientNet, "eth0", netip.MustParsePrefix("203.0.113.50/24"))
	client.SetDefaultGateway(cNIC, netip.MustParseAddr("203.0.113.1"))
	sc.clientHost = client
	sc.client, err = probe.NewClient(client, probe.ClientConfig{
		Target:    netip.AddrPortFrom(netip.MustParseAddr("10.1.0.10"), ServicePort),
		LocalPort: clientPort,
	})
	if err != nil {
		return nil, err
	}
	return sc, nil
}

// activeRouter returns the index of the physical router holding the
// virtual addresses.
func (sc *virtualRouterScenario) activeRouter() (int, error) {
	for i, r := range sc.routers {
		holds := false
		for _, nic := range r.Host.NICs() {
			if nic.HasAddr(extVIP) || nic.HasAddr(webVIP) {
				holds = true
			}
		}
		if holds && r.Host.Alive() {
			return i, nil
		}
	}
	return 0, fmt.Errorf("experiment: no active virtual router")
}

// RouterTrial measures the client-visible interruption when the active
// physical router crashes, under the given §5.2 setup.
func RouterTrial(seed int64, mode RouterMode, cfg gcs.Config, ripCfg rip.Config) (runner.Sample, error) {
	sc, err := newVirtualRouterScenario(seed, mode, cfg, ripCfg)
	if err != nil {
		return runner.Sample{}, err
	}
	// Warm-up: let memberships form, the active router join the routing
	// protocol and learn the client network (first periodic advertisement),
	// and the probe path populate every ARP cache.
	sc.sim.RunFor(2*cfg.DiscoveryTimeout + 2*time.Second)
	sc.client.Start()
	sc.sim.RunFor(ripCfg.AdvertisePeriod + 5*time.Second)
	if sc.client.Responses() == 0 {
		return runner.Sample{}, fmt.Errorf("experiment: no responses during warm-up")
	}
	// Random fault phase relative to the advertisement period.
	sc.sim.RunFor(time.Duration(sc.sim.Rand().Int63n(int64(ripCfg.AdvertisePeriod))))
	sc.client.ResetStats()
	sc.sim.RunFor(200 * time.Millisecond)

	active, err := sc.activeRouter()
	if err != nil {
		return runner.Sample{}, err
	}
	sc.routers[active].Host.Crash()
	maxWait := 3*ripCfg.AdvertisePeriod + 4*(cfg.FaultDetectTimeout+cfg.DiscoveryTimeout)
	step := 100 * time.Millisecond
	for waited := time.Duration(0); waited < maxWait; waited += step {
		sc.sim.RunFor(step)
		if gaps := sc.client.Gaps(); len(gaps) > 0 {
			return runner.Sample{Value: gaps[0].Duration(), Metrics: sc.metrics()}, nil
		}
	}
	return runner.Sample{}, fmt.Errorf("experiment: router fail-over never completed within %v", maxWait)
}

// routerComparison contrasts the two §5.2 setups — naive against
// advertise-all — with tuned Wackamole timeouts and 30s RIP advertisements.
var routerComparison = Experiment{
	Name:  "router",
	Title: "## §5.2 — Virtual-router fail-over: naive vs advertise-all dynamic routing",
	Unit:  "interruption",
	Points: func(g Grid) []Point {
		cfg := gcs.TunedConfig()
		ripCfg := rip.Config{AdvertisePeriod: rip.DefaultAdvertisePeriod}
		var points []Point
		for _, mode := range []RouterMode{RouterModeNaive, RouterModeAdvertiseAll} {
			points = append(points, Point{
				Label: string(mode),
				Cols:  []string{string(mode)},
				Run: func(seed int64) (runner.Sample, error) {
					return RouterTrial(seed, mode, cfg, ripCfg)
				},
			})
		}
		return points
	},
	Render: rowTable([]string{"setup", "trials", "mean interruption", "min", "max"}, meanMinMax),
}
