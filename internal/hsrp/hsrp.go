// Package hsrp implements a simplified Hot Standby Router Protocol, the
// Cisco baseline the paper discusses (§7): one active router and one
// standby exchange hello messages; the standby takes over when the active
// timer expires without hellos from the active router. Timers follow the
// paper's description: hellos every 3 seconds, timeouts of 10 seconds.
package hsrp

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"wackamole/internal/env"
	"wackamole/internal/netsim"
	"wackamole/internal/wire"
)

// port carries hello messages in the simulation (real HSRP uses UDP 1985).
const port = 1985

// Timers from the paper: "By default, hello messages are sent every 3
// seconds and the Active and Standby timeouts are set to 10 seconds."
const (
	helloInterval = 3 * time.Second
	holdTime      = 10 * time.Second
)

// Role is the router's current role.
type Role uint8

// Roles.
const (
	roleListen Role = iota + 1
	roleStandby
	RoleActive
)

// String names the role.
func (r Role) String() string {
	switch r {
	case roleListen:
		return "listen"
	case roleStandby:
		return "standby"
	case RoleActive:
		return "active"
	default:
		return fmt.Sprintf("role(%d)", uint8(r))
	}
}

// Config parameterizes one HSRP router.
type Config struct {
	// Group identifies the standby group.
	Group uint8
	// Priority is the election weight (higher wins; ties broken by higher
	// interface address).
	Priority uint8
	// VIP is the standby group's virtual address.
	VIP netip.Addr
}

// Router is one HSRP instance.
type Router struct {
	host *netsim.Host
	nic  *netsim.NIC
	cfg  Config

	role    Role
	peers   map[netip.Addr]uint8 // each peer heard from, by its priority
	helloT  env.Timer
	activeT env.Timer
	running bool
}

// New binds an HSRP router on (host, nic).
func New(host *netsim.Host, nic *netsim.NIC, cfg Config) (*Router, error) {
	if !cfg.VIP.IsValid() {
		return nil, fmt.Errorf("hsrp: missing virtual address")
	}
	r := &Router{host: host, nic: nic, cfg: cfg, role: roleListen, peers: map[netip.Addr]uint8{}}
	if _, err := host.BindUDP(netip.Addr{}, port, func(src, _ netip.AddrPort, payload []byte) {
		r.onHello(src.Addr(), payload)
	}); err != nil {
		return nil, fmt.Errorf("hsrp: %w", err)
	}
	r.helloT = host.NewTimer(r.hello)
	r.activeT = host.NewTimer(r.activeTimeout)
	return r, nil
}

// Start begins listening and helloing; the initial election resolves after
// the hold timeout.
func (r *Router) Start() {
	if r.running {
		return
	}
	r.running = true
	r.hello()
	r.armActiveTimer()
}

// Role returns the router's current role.
func (r *Router) Role() Role { return r.role }

// hello sends one hello and re-arms the hello timer.
func (r *Router) hello() {
	r.sendHello()
	r.helloT.Reset(helloInterval)
}

func (r *Router) armActiveTimer() { r.activeT.Reset(holdTime) }

func (r *Router) activeTimeout() {
	if r.role != RoleActive {
		r.onActiveDown()
	}
}

// onActiveDown fires when no active-router hellos arrived for the hold
// time: the standby becomes active; with no standby either, the best
// candidate by (priority, address) takes over.
func (r *Router) onActiveDown() {
	if r.role == roleStandby || r.bestCandidate() {
		r.becomeActive()
		return
	}
	r.role = roleStandby
	r.armActiveTimer()
}

// bestCandidate reports whether this router wins the election among the
// peers heard recently.
func (r *Router) bestCandidate() bool {
	type cand struct {
		prio uint8
		addr netip.Addr
	}
	cands := []cand{{r.cfg.Priority, r.nic.Primary()}}
	for a, prio := range r.peers {
		cands = append(cands, cand{prio, a})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].prio != cands[j].prio {
			return cands[i].prio > cands[j].prio
		}
		return cands[j].addr.Less(cands[i].addr)
	})
	return cands[0].addr == r.nic.Primary()
}

func (r *Router) becomeActive() {
	r.role = RoleActive
	r.activeT.Stop()
	if !r.nic.HasAddr(r.cfg.VIP) {
		if err := r.nic.AddAddr(r.cfg.VIP); err != nil {
			_ = err // only duplicates fail, excluded by HasAddr
		}
	}
	if err := r.host.SendGratuitousARP(r.nic, r.cfg.VIP); err != nil {
		_ = err // interface down during fault injection
	}
	r.sendHello()
}

func (r *Router) sendHello() {
	w := wire.NewWriter(16)
	w.U8(r.cfg.Group)
	w.U8(r.cfg.Priority)
	w.U8(uint8(r.role))
	dst := netip.AddrPortFrom(r.nic.Broadcast(), port)
	src := netip.AddrPortFrom(r.nic.Primary(), port)
	if err := r.host.SendUDP(src, dst, w.Bytes()); err != nil {
		_ = err
	}
}

func (r *Router) onHello(from netip.Addr, payload []byte) {
	if !r.running || from == r.nic.Primary() {
		return
	}
	rd := wire.NewReader(payload)
	group := rd.U8()
	prio := rd.U8()
	role := Role(rd.U8())
	if rd.Done() != nil || group != r.cfg.Group {
		return
	}
	r.peers[from] = prio
	if role == RoleActive {
		if r.role == RoleActive {
			// Two actives (e.g. after a partition heal): the loser steps
			// down by (priority, address).
			if !r.bestCandidate() {
				r.stepDown()
			}
			return
		}
		r.armActiveTimer()
	}
}

func (r *Router) stepDown() {
	r.role = roleListen
	if r.nic.HasAddr(r.cfg.VIP) {
		if err := r.nic.RemoveAddr(r.cfg.VIP); err != nil {
			_ = err
		}
	}
	r.armActiveTimer()
}
