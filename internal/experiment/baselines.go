package experiment

import (
	"fmt"
	"net/netip"
	"time"

	"wackamole/internal/experiment/runner"
	"wackamole/internal/fake"
	"wackamole/internal/gcs"
	"wackamole/internal/hsrp"
	"wackamole/internal/netsim"
	"wackamole/internal/probe"
	"wackamole/internal/sim"
	"wackamole/internal/vrrp"
)

// pairTopology is a two-server fail-over pair behind a router with an
// external probing client — the smallest instance of the Figure 3 layout,
// used to measure every baseline with the same §6 methodology.
type pairTopology struct {
	sim       *sim.Sim
	net       *netsim.Network
	main      *netsim.Host
	backup    *netsim.Host
	mainNIC   *netsim.NIC
	backupNIC *netsim.NIC
	client    *probe.Client
	vip       netip.Addr
}

func newPairTopology(seed int64) (*pairTopology, error) {
	s := sim.New(seed)
	nw := netsim.New(s)
	segCfg := netsim.DefaultSegmentConfig()
	lan := nw.NewSegment("cluster", segCfg)
	ext := nw.NewSegment("external", segCfg)

	router := nw.NewHost("router")
	router.AttachNIC(lan, "in", netip.MustParsePrefix("10.0.0.1/24"))
	router.AttachNIC(ext, "out", netip.MustParsePrefix("192.168.1.1/24"))
	router.EnableForwarding()

	p := &pairTopology{sim: s, net: nw, vip: netip.MustParseAddr("10.0.0.100")}
	p.main = nw.NewHost("main")
	p.mainNIC = p.main.AttachNIC(lan, "eth0", netip.MustParsePrefix("10.0.0.10/24"))
	p.main.SetDefaultGateway(p.mainNIC, netip.MustParseAddr("10.0.0.1"))
	p.backup = nw.NewHost("backup")
	p.backupNIC = p.backup.AttachNIC(lan, "eth0", netip.MustParsePrefix("10.0.0.11/24"))
	p.backup.SetDefaultGateway(p.backupNIC, netip.MustParseAddr("10.0.0.1"))
	for _, h := range []*netsim.Host{p.main, p.backup} {
		if err := probe.NewServer(h, ServicePort); err != nil {
			return nil, err
		}
	}

	clientHost := nw.NewHost("client")
	cnic := clientHost.AttachNIC(ext, "eth0", netip.MustParsePrefix("192.168.1.50/24"))
	clientHost.SetDefaultGateway(cnic, netip.MustParseAddr("192.168.1.1"))
	client, err := probe.NewClient(clientHost, probe.ClientConfig{
		Target:    netip.AddrPortFrom(p.vip, ServicePort),
		LocalPort: clientPort,
	})
	if err != nil {
		return nil, err
	}
	p.client = client
	return p, nil
}

// measureFailover warms the probe path up, fails the main server and
// returns the client-visible interruption together with the topology's
// traffic counters.
func (p *pairTopology) measureFailover(maxWait time.Duration) (runner.Sample, error) {
	p.client.Start()
	p.sim.RunFor(2 * time.Second)
	if p.client.Responses() == 0 {
		return runner.Sample{}, fmt.Errorf("experiment: service never answered before the fault")
	}
	// Uniform fault phase relative to the protocols' periodic timers.
	p.sim.RunFor(time.Duration(p.sim.Rand().Int63n(int64(3 * time.Second))))
	p.client.ResetStats()
	p.sim.RunFor(100 * time.Millisecond)
	p.mainNIC.SetUp(false)
	step := 50 * time.Millisecond
	for waited := time.Duration(0); waited < maxWait; waited += step {
		p.sim.RunFor(step)
		if gaps := p.client.Gaps(); len(gaps) > 0 {
			return runner.Sample{Value: gaps[0].Duration(), Metrics: networkMetrics(p.net)}, nil
		}
	}
	return runner.Sample{}, fmt.Errorf("experiment: no fail-over within %v", maxWait)
}

// vrrpTrial measures VRRP fail-over with RFC 2338 defaults (1s adverts).
func vrrpTrial(seed int64) (runner.Sample, error) {
	p, err := newPairTopology(seed)
	if err != nil {
		return runner.Sample{}, err
	}
	master, err := vrrp.New(p.main, p.mainNIC, vrrp.Config{VRID: 1, Priority: 200, VIP: p.vip, Preempt: true})
	if err != nil {
		return runner.Sample{}, err
	}
	backup, err := vrrp.New(p.backup, p.backupNIC, vrrp.Config{VRID: 1, Priority: 100, VIP: p.vip, Preempt: true})
	if err != nil {
		return runner.Sample{}, err
	}
	master.Start()
	backup.Start()
	p.sim.RunFor(8 * time.Second) // initial election
	if master.State() != vrrp.StateMaster {
		return runner.Sample{}, fmt.Errorf("experiment: vrrp election failed (main %v)", master.State())
	}
	return p.measureFailover(30 * time.Second)
}

// hsrpTrial measures HSRP fail-over with the defaults the paper quotes
// (hello 3s, timeouts 10s).
func hsrpTrial(seed int64) (runner.Sample, error) {
	p, err := newPairTopology(seed)
	if err != nil {
		return runner.Sample{}, err
	}
	active, err := hsrp.New(p.main, p.mainNIC, hsrp.Config{Group: 1, Priority: 200, VIP: p.vip})
	if err != nil {
		return runner.Sample{}, err
	}
	standby, err := hsrp.New(p.backup, p.backupNIC, hsrp.Config{Group: 1, Priority: 100, VIP: p.vip})
	if err != nil {
		return runner.Sample{}, err
	}
	active.Start()
	standby.Start()
	p.sim.RunFor(25 * time.Second) // initial election resolves after hold
	if active.Role() != hsrp.RoleActive {
		return runner.Sample{}, fmt.Errorf("experiment: hsrp election failed (main %v)", active.Role())
	}
	return p.measureFailover(40 * time.Second)
}

// fakeTrial measures the Linux Fake scheme: the backup probes the main's
// service every second and takes over after three consecutive misses.
func fakeTrial(seed int64) (runner.Sample, error) {
	p, err := newPairTopology(seed)
	if err != nil {
		return runner.Sample{}, err
	}
	if err := p.mainNIC.AddAddr(p.vip); err != nil {
		return runner.Sample{}, err
	}
	mon, err := fake.New(p.backup, p.backupNIC, fake.Config{
		Target:    netip.AddrPortFrom(p.vip, ServicePort),
		VIP:       p.vip,
		LocalPort: 9100,
	})
	if err != nil {
		return runner.Sample{}, err
	}
	mon.Start()
	return p.measureFailover(30 * time.Second)
}

// baselines runs the §7 fail-over comparison: Wackamole under both Table 1
// configurations against VRRP, HSRP and Fake, all measured identically.
var baselines = Experiment{
	Name:  "baselines",
	Title: "## §7 — Fail-over time against the related-work baselines",
	Unit:  "failover",
	Points: func(g Grid) []Point {
		var points []Point
		for _, sys := range []struct {
			name, detail string
			run          runner.Trial
		}{
			{"wackamole (tuned)", "Table 1 tuned timeouts", func(s int64) (runner.Sample, error) {
				return Figure5Trial(s, 2, gcs.TunedConfig())
			}},
			{"wackamole (default)", "Table 1 default timeouts", func(s int64) (runner.Sample, error) {
				return Figure5Trial(s, 2, gcs.DefaultConfig())
			}},
			{"vrrp", "RFC 2338 defaults: 1s adverts, 3×+skew master-down", vrrpTrial},
			{"hsrp", "hello 3s, hold 10s (§7)", hsrpTrial},
			{"fake", "1s service probes, 3-miss threshold", fakeTrial},
		} {
			points = append(points, Point{
				Label: sys.name,
				Cols:  []string{sys.name, sys.detail},
				Run:   sys.run,
			})
		}
		return points
	},
	Render: rowTable([]string{"system", "configuration", "trials", "mean fail-over", "min", "max"}, meanMinMax),
}
