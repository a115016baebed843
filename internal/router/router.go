// Package router implements the paper's second application (§5.2): N
// physical routers acting as a single virtual router. An indivisible set of
// virtual addresses — one per network the router serves — is allocated to
// whichever physical router is currently active; Wackamole moves the whole
// set on failure. The package also wires up the two dynamic-routing
// participation modes the paper contrasts (only-active vs advertise-all)
// and, optionally, the ARP-cache-sharing notifier.
package router

import (
	"fmt"

	"wackamole"
	"wackamole/internal/arp"
	"wackamole/internal/arpshare"
	"wackamole/internal/core"
	"wackamole/internal/gcs"
	"wackamole/internal/ipmgr"
	"wackamole/internal/netsim"
	"wackamole/internal/rip"
)

// Participation says when this physical router takes part in the dynamic
// routing protocol.
type Participation uint8

// Participation modes (§5.2).
const (
	// ParticipateWhenActive: the router joins the routing protocol only
	// while it holds the virtual addresses — the naive setup whose
	// take-over stalls until the next periodic advertisement.
	ParticipateWhenActive Participation = iota + 1
	// ParticipateAlways: all fail-over routers run the routing protocol
	// continuously and advertise the same internal networks, so a take-over
	// completes as soon as Wackamole reassigns the addresses.
	ParticipateAlways
)

// Options configure one physical router.
type Options struct {
	// Host is the multi-homed forwarding host.
	Host *netsim.Host
	// GCSNIC carries the group-communication traffic (the paper notes
	// Spread must bind to addresses not subject to Wackamole's management).
	GCSNIC *netsim.NIC
	// GCS holds the daemon timeouts.
	GCS gcs.Config
	// Group is the indivisible virtual address set: the virtual router's
	// address on every network it serves.
	Group core.VIPGroup
	// RIP configures the dynamic routing process.
	RIP rip.Config
	// Participation selects the §5.2 setup; zero means ParticipateAlways.
	Participation Participation
	// ShareARP enables the §5.2 ARP-cache-sharing notifier.
	ShareARP bool
	// OnNode, if set, runs after the node is built but before Start, so
	// observation hooks (invariant monitors) can attach without missing
	// boot events.
	OnNode func(n *wackamole.Node)
}

// PhysicalRouter is one member of a virtual router.
type PhysicalRouter struct {
	Node   *wackamole.Node
	RIP    *rip.Process
	Sharer *arpshare.Sharer // nil unless ShareARP

	participation Participation
	started       bool
}

// New wires a physical router together. Call Start to begin operation.
func New(opts Options) (*PhysicalRouter, error) {
	if opts.Host == nil || opts.GCSNIC == nil {
		return nil, fmt.Errorf("router: Host and GCSNIC are required")
	}
	if len(opts.Group.Addrs) == 0 {
		return nil, fmt.Errorf("router: the virtual address group is empty")
	}
	if opts.Participation == 0 {
		opts.Participation = ParticipateAlways
	}
	opts.Host.EnableForwarding()

	ep, err := opts.Host.OpenEndpoint(opts.GCSNIC, wackamole.DefaultPort)
	if err != nil {
		return nil, fmt.Errorf("router: %w", err)
	}
	ripProc, err := rip.New(opts.Host, opts.RIP)
	if err != nil {
		return nil, err
	}

	r := &PhysicalRouter{RIP: ripProc, participation: opts.Participation}

	var notifier arp.Notifier = &netsim.ARPAnnouncer{Host: opts.Host}
	node, err := wackamole.NewNode(ep.Env(nil), wackamole.Config{
		GCS: opts.GCS,
		Engine: core.Config{
			Groups:      []core.VIPGroup{opts.Group},
			StartMature: true,
		},
	}, &ipmgr.HostBackend{Host: opts.Host}, notifier)
	if err != nil {
		return nil, err
	}
	r.Node = node

	if opts.ShareARP {
		sharer, err := arpshare.New(opts.Host, node.Daemon(), arpshare.Config{})
		if err != nil {
			return nil, err
		}
		r.Sharer = sharer
		node.Engine().SetNotifier(sharer.Notifier(notifier))
	}

	if opts.Participation == ParticipateWhenActive {
		node.Engine().AddOwnershipHook(func(_ string, owned bool, _ string) {
			if owned {
				ripProc.Start()
			} else {
				ripProc.Stop()
			}
		})
	}
	if opts.OnNode != nil {
		opts.OnNode(node)
	}
	return r, nil
}

// Start launches the node and, in advertise-all mode, the routing process.
func (r *PhysicalRouter) Start() error {
	if r.started {
		return fmt.Errorf("router: already started")
	}
	r.started = true
	if r.participation == ParticipateAlways {
		r.RIP.Start()
	}
	if r.Sharer != nil {
		r.Sharer.Start()
	}
	return r.Node.Start()
}
