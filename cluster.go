package wackamole

import (
	"fmt"
	"net/netip"
	"time"

	"wackamole/internal/core"
	"wackamole/internal/gcs"
	"wackamole/internal/invariant"
	"wackamole/internal/ipmgr"
	"wackamole/internal/metrics"
	"wackamole/internal/netsim"
	"wackamole/internal/obs"
	"wackamole/internal/placement"
	"wackamole/internal/sim"
)

// ClusterOptions parameterize a simulated Wackamole cluster, the programmatic
// equivalent of the paper's experimental testbed (§6): N servers on a
// 100 Mbit-class LAN behind one router, covering a set of virtual addresses.
type ClusterOptions struct {
	// Seed drives the deterministic simulation.
	Seed int64
	// Servers is the cluster size (paper: 2 to 12).
	Servers int
	// VIPs is the number of single-address virtual IP groups (paper: 10).
	VIPs int
	// GCS configures the group-communication timeouts. Zero value means
	// gcs.TunedConfig().
	GCS gcs.Config
	// BalanceTimeout, Bootstrap, DisableBalance and LazyConflictRelease
	// forward to the engine configuration. Bootstrap enables the §3.4
	// maturity bootstrap (experiments usually start mature).
	BalanceTimeout      time.Duration
	MatureTimeout       time.Duration
	Bootstrap           bool
	DisableBalance      bool
	LazyConflictRelease bool
	// RepresentativeDecisions enables the §4.2 variant where the
	// representative imposes the post-gather allocation.
	RepresentativeDecisions bool
	// Placement names the placement policy every server runs
	// (placement.NameLeastLoaded, placement.NameMinimal). Empty means the
	// historical least-loaded rule. Each server gets its own policy
	// instance — policies carry scratch state.
	Placement string
	// DisableARPSpoof suppresses gratuitous ARP after acquisition (the
	// ablation quantifying §5.1's spoofing).
	DisableARPSpoof bool
	// WithRouter adds a forwarding router and an external client segment,
	// completing the Figure 3 topology.
	WithRouter bool
	// RouterARPTTL overrides the router's ARP cache lifetime (used by the
	// ARP-spoofing ablation, where recovery waits for cache expiry).
	RouterARPTTL time.Duration
	// StartStagger delays server i's start by i×StartStagger, modelling a
	// cluster booting machine by machine (the situation the §3.4 maturity
	// bootstrap addresses).
	StartStagger time.Duration
	// Segment overrides the LAN characteristics; zero value means
	// netsim.DefaultSegmentConfig().
	Segment netsim.SegmentConfig
	// Tracer records structured protocol events from the network and every
	// node, stamped with virtual time (nil: tracing disabled).
	Tracer *obs.Tracer
	// Metrics records latency histograms and counters from every node
	// (nil: measurement disabled).
	Metrics *metrics.Registry
	// ConfigureNode, if set, may adjust each server's configuration before
	// the node is built (per-server preferences, differing timeouts...).
	ConfigureNode func(i int, cfg *Config)
	// Invariants, if set, is attached to every server (before it starts, so
	// no boot event is missed): each node's view, delivery and ownership
	// hooks feed monitor slot i. The monitor must have been built with
	// Config.Nodes >= Servers.
	Invariants *invariant.Monitor
	// OnNode, if set, runs for each server after its node is built but
	// before it starts. Checkers use it to install typed observation hooks
	// (view installs, deliveries, ownership changes) without missing boot
	// events.
	OnNode func(i int, n *Node)
	// WrapBackend, if set, may decorate each server's virtual-interface
	// backend. The model checker's mutation tests use it to inject
	// deliberately broken address handling behind an otherwise unmodified
	// engine.
	WrapBackend func(i int, b ipmgr.Backend) ipmgr.Backend
}

// Server is one simulated cluster member.
type Server struct {
	Host *netsim.Host
	NIC  *netsim.NIC
	Node *Node
}

// Cluster is a fully wired simulated Wackamole deployment.
type Cluster struct {
	Sim      *sim.Sim
	Net      *netsim.Network
	Segment  *netsim.Segment
	External *netsim.Segment // nil unless WithRouter
	Router   *netsim.Host    // nil unless WithRouter
	Servers  []*Server
	Groups   []core.VIPGroup
	opts     ClusterOptions
}

// ClusterSubnet is the simulated server LAN.
var ClusterSubnet = netip.MustParsePrefix("10.0.0.0/24")

// ExternalSubnet is the simulated client-side network behind the router.
var ExternalSubnet = netip.MustParsePrefix("192.168.1.0/24")

// ServerAddr returns server i's stationary address (10.0.0.10+i). The
// servers' range ends below the virtual addresses', which caps a cluster at
// 90 servers.
func ServerAddr(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, 0, 0, byte(10 + i)})
}

// VIPAddr returns virtual address j (10.0.0.100+j).
func VIPAddr(j int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, 0, 0, byte(100 + j)})
}

// RouterInsideAddr is the router's address on the cluster LAN.
var RouterInsideAddr = netip.MustParseAddr("10.0.0.1")

// RouterOutsideAddr is the router's address on the external network.
var RouterOutsideAddr = netip.MustParseAddr("192.168.1.1")

// NewCluster builds and starts a simulated cluster. Run the simulator (for
// at least the discovery timeout) to let it form.
func NewCluster(opts ClusterOptions) (*Cluster, error) {
	if opts.Servers <= 0 {
		return nil, fmt.Errorf("wackamole: cluster needs at least one server")
	}
	if opts.VIPs <= 0 {
		return nil, fmt.Errorf("wackamole: cluster needs at least one virtual address")
	}
	if opts.VIPs > 100 {
		return nil, fmt.Errorf("wackamole: %d virtual addresses exceed the simulated /24 address plan (at most 100)", opts.VIPs)
	}
	if opts.Servers > 90 {
		return nil, fmt.Errorf("wackamole: %d servers overlap the virtual addresses: server addresses run from %v and virtual addresses from %v, so at most 90 servers fit", opts.Servers, ServerAddr(0), VIPAddr(0))
	}
	if opts.GCS == (gcs.Config{}) {
		opts.GCS = gcs.TunedConfig()
	}
	segCfg := opts.Segment
	if segCfg == (netsim.SegmentConfig{}) {
		segCfg = netsim.DefaultSegmentConfig()
	}

	s := sim.New(opts.Seed)
	nw := netsim.New(s)
	if opts.Tracer != nil {
		opts.Tracer.SetNow(s.Now)
		nw.SetEventTracer(opts.Tracer)
	}
	c := &Cluster{
		Sim:     s,
		Net:     nw,
		Segment: nw.NewSegment("cluster", segCfg),
		opts:    opts,
	}
	for j := 0; j < opts.VIPs; j++ {
		c.Groups = append(c.Groups, core.VIPGroup{
			Name:  fmt.Sprintf("vip%02d", j),
			Addrs: []netip.Addr{VIPAddr(j)},
		})
	}

	if opts.WithRouter {
		c.External = nw.NewSegment("external", segCfg)
		c.Router = nw.NewHost("router")
		c.Router.AttachNIC(c.Segment, "inside", netip.PrefixFrom(RouterInsideAddr, ClusterSubnet.Bits()))
		c.Router.AttachNIC(c.External, "outside", netip.PrefixFrom(RouterOutsideAddr, ExternalSubnet.Bits()))
		c.Router.EnableForwarding()
		if opts.RouterARPTTL > 0 {
			c.Router.SetARPTTL(opts.RouterARPTTL)
		}
	}

	for i := 0; i < opts.Servers; i++ {
		host := nw.NewHost(fmt.Sprintf("server%02d", i))
		nic := host.AttachNIC(c.Segment, "eth0", netip.PrefixFrom(ServerAddr(i), ClusterSubnet.Bits()))
		if opts.WithRouter {
			host.SetDefaultGateway(nic, RouterInsideAddr)
		}
		placer, err := placement.New(opts.Placement)
		if err != nil {
			return nil, fmt.Errorf("wackamole: server %d: %w", i, err)
		}
		cfg := Config{
			GCS: opts.GCS,
			Engine: core.Config{
				Groups:                  c.Groups,
				BalanceTimeout:          opts.BalanceTimeout,
				MatureTimeout:           opts.MatureTimeout,
				StartMature:             !opts.Bootstrap,
				DisableBalance:          opts.DisableBalance,
				LazyConflictRelease:     opts.LazyConflictRelease,
				RepresentativeDecisions: opts.RepresentativeDecisions,
				Placer:                  placer,
			},
		}
		if opts.ConfigureNode != nil {
			opts.ConfigureNode(i, &cfg)
		}
		ep, err := host.OpenEndpoint(nic, DefaultPort)
		if err != nil {
			return nil, fmt.Errorf("wackamole: server %d: %w", i, err)
		}
		notifier := &netsim.ARPAnnouncer{Host: host, Disabled: opts.DisableARPSpoof}
		var backend ipmgr.Backend = &ipmgr.NICBackend{NIC: nic}
		if opts.WrapBackend != nil {
			backend = opts.WrapBackend(i, backend)
		}
		e := ep.Env(nil)
		e.Tracer, e.Metrics = opts.Tracer, opts.Metrics
		node, err := NewNode(e, cfg, backend, notifier)
		if err != nil {
			return nil, fmt.Errorf("wackamole: server %d: %w", i, err)
		}
		if opts.Invariants != nil {
			opts.Invariants.Attach(i, node)
		}
		if opts.OnNode != nil {
			opts.OnNode(i, node)
		}
		if opts.StartStagger > 0 && i > 0 {
			node := node
			s.After(time.Duration(i)*opts.StartStagger, func() {
				// NewCluster has returned by now, so there is no caller to
				// report to: a server that fails to start never joins.
				_ = node.Start()
			})
		} else if err := node.Start(); err != nil {
			return nil, fmt.Errorf("wackamole: server %d: %w", i, err)
		}
		c.Servers = append(c.Servers, &Server{Host: host, NIC: nic, Node: node})
	}
	return c, nil
}

// RunFor advances the simulation.
func (c *Cluster) RunFor(d time.Duration) { c.Sim.RunFor(d) }

// Settle runs the simulation long enough for a freshly started or recently
// disturbed cluster to pass discovery, install a membership and reallocate.
func (c *Cluster) Settle() {
	c.RunFor(2*c.opts.GCS.DiscoveryTimeout + c.opts.GCS.FaultDetectTimeout + time.Second)
}

// FailServer disconnects server i's interface — the paper's fault-injection
// method (§6).
func (c *Cluster) FailServer(i int) { c.Servers[i].NIC.SetUp(false) }

// RestoreServer re-enables a disconnected interface.
func (c *Cluster) RestoreServer(i int) { c.Servers[i].NIC.SetUp(true) }

// Partition splits the cluster LAN into components of the given server
// indices. The router (if any) joins the first component.
func (c *Cluster) Partition(groups ...[]int) {
	hostGroups := make([][]*netsim.Host, len(groups))
	for gi, g := range groups {
		for _, i := range g {
			hostGroups[gi] = append(hostGroups[gi], c.Servers[i].Host)
		}
	}
	if c.Router != nil {
		hostGroups[0] = append(hostGroups[0], c.Router)
	}
	c.Segment.Partition(hostGroups...)
}

// Heal removes any partition.
func (c *Cluster) Heal() { c.Segment.Heal() }

// reachable reports whether server i can answer traffic at all.
func (c *Cluster) reachable(i int) bool {
	return c.Servers[i].Host.Alive() && c.Servers[i].NIC.Up()
}

// Reachable reports whether server i is alive with its interface up — the
// precondition for it to count as a holder of any address.
func (c *Cluster) Reachable(i int) bool { return c.reachable(i) }

// Components returns the connected components of the cluster LAN as sorted
// server-index groups, considering both segment partitions and per-server
// reachability. Unreachable servers (crashed host or downed NIC) appear in
// no component. This is the paper's notion of "connected servers": Property 1
// promises exactly-once coverage within each component independently.
func (c *Cluster) Components() [][]int {
	byGroup := map[int][]int{}
	order := []int{}
	for i, srv := range c.Servers {
		if !c.reachable(i) {
			continue
		}
		g := c.Segment.PartitionGroup(srv.NIC)
		if _, seen := byGroup[g]; !seen {
			order = append(order, g)
		}
		byGroup[g] = append(byGroup[g], i)
	}
	out := make([][]int, 0, len(order))
	for _, g := range order {
		out = append(out, byGroup[g])
	}
	return out
}

// Owner returns the index of the reachable server currently holding vip, or
// -1 with the count of reachable holders (0 or >1 during transitions; a
// failed server still carrying the address forms its own connected component
// and does not count).
func (c *Cluster) Owner(vip netip.Addr) (int, int) {
	owner, holders := -1, 0
	for i, srv := range c.Servers {
		if c.reachable(i) && srv.NIC.HasAddr(vip) {
			owner = i
			holders++
		}
	}
	if holders != 1 {
		return -1, holders
	}
	return owner, 1
}

// CoverageByServer returns how many virtual addresses each reachable server
// holds (failed servers report zero).
func (c *Cluster) CoverageByServer() []int {
	out := make([]int, len(c.Servers))
	for i, srv := range c.Servers {
		if !c.reachable(i) {
			continue
		}
		for j := 0; j < c.opts.VIPs; j++ {
			if srv.NIC.HasAddr(VIPAddr(j)) {
				out[i]++
			}
		}
	}
	return out
}

// InvariantView exposes the cluster to the settled-state invariant checks
// (invariant.CheckSettled) without giving them mutation access.
func (c *Cluster) InvariantView() invariant.ClusterView {
	return invariant.ClusterView{
		Servers:    len(c.Servers),
		VIPs:       c.opts.VIPs,
		Components: c.Components,
		InService:  func(i int) bool { return c.Servers[i].Node.Connected() },
		Reachable:  c.Reachable,
		HasVIP:     func(i, j int) bool { return c.Servers[i].NIC.HasAddr(VIPAddr(j)) },
		VIPAddr:    VIPAddr,
		GroupName:  func(j int) string { return c.Groups[j].Name },
		Status:     func(i int) core.Status { return c.Servers[i].Node.Status() },
	}
}

// VIPs lists the cluster's virtual addresses.
func (c *Cluster) VIPs() []netip.Addr {
	out := make([]netip.Addr, c.opts.VIPs)
	for j := range out {
		out[j] = VIPAddr(j)
	}
	return out
}
