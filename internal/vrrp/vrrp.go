// Package vrrp implements a simplified Virtual Router Redundancy Protocol
// (RFC 2338), the IETF-standard baseline the paper compares against (§7):
// an election protocol that dynamically assigns responsibility for a
// virtual router to one of the VRRP routers on a LAN. One master owns the
// virtual address and advertises periodically; backups take over when the
// master-down interval (3×advertisement + skew) expires.
//
// The implementation runs on the simulated network and is used by the
// baseline fail-over comparison experiment.
package vrrp

import (
	"fmt"
	"net/netip"
	"time"

	"wackamole/internal/env"
	"wackamole/internal/netsim"
	"wackamole/internal/wire"
)

// port carries advertisements in the simulation (VRRP is IP protocol 112;
// the simulator models UDP only).
const port = 112

// advertInterval separates master advertisements: the RFC 2338 default of
// one second.
const advertInterval = time.Second

// State is the protocol state.
type State uint8

// Protocol states.
const (
	stateInit State = iota + 1
	stateBackup
	StateMaster
)

// String names the state.
func (s State) String() string {
	switch s {
	case stateInit:
		return "init"
	case stateBackup:
		return "backup"
	case StateMaster:
		return "master"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Config parameterizes one VRRP router.
type Config struct {
	// VRID identifies the virtual router (1-255).
	VRID uint8
	// Priority is this router's election weight (1-254, higher wins).
	Priority uint8
	// VIP is the virtual router's address.
	VIP netip.Addr
	// Preempt lets a higher-priority router take over from a live master.
	Preempt bool
}

// skewTime is (256 − priority) / 256 seconds, per RFC 2338.
func (c Config) skewTime() time.Duration {
	return time.Duration(256-int(c.Priority)) * time.Second / 256
}

// masterDownInterval is 3×advertisement interval + skew, per RFC 2338.
func (c Config) masterDownInterval() time.Duration {
	return 3*advertInterval + c.skewTime()
}

// Router is one VRRP instance on a host interface.
type Router struct {
	host *netsim.Host
	nic  *netsim.NIC
	cfg  Config

	state       State
	advertTimer env.Timer
	downTimer   env.Timer
	running     bool
}

// New binds a VRRP router on (host, nic).
func New(host *netsim.Host, nic *netsim.NIC, cfg Config) (*Router, error) {
	if !cfg.VIP.IsValid() {
		return nil, fmt.Errorf("vrrp: missing virtual address")
	}
	if cfg.Priority == 0 || cfg.Priority == 255 {
		return nil, fmt.Errorf("vrrp: priority must be 1-254, got %d", cfg.Priority)
	}
	r := &Router{host: host, nic: nic, cfg: cfg, state: stateInit}
	if _, err := host.BindUDP(netip.Addr{}, port, func(src, _ netip.AddrPort, payload []byte) {
		r.onAdvert(src.Addr(), payload)
	}); err != nil {
		return nil, fmt.Errorf("vrrp: %w", err)
	}
	r.advertTimer = host.NewTimer(r.advertise)
	r.downTimer = host.NewTimer(r.masterDown)
	return r, nil
}

// Start enters the backup state; the master-down timer elects the initial
// master (smallest skew, i.e. highest priority, first).
func (r *Router) Start() {
	if r.running {
		return
	}
	r.running = true
	r.toBackup()
}

// State returns the protocol state.
func (r *Router) State() State { return r.state }

func (r *Router) toBackup() {
	r.state = stateBackup
	r.advertTimer.Stop()
	r.armDownTimer()
}

func (r *Router) armDownTimer() { r.downTimer.Reset(r.cfg.masterDownInterval()) }

func (r *Router) masterDown() {
	if r.state == stateBackup {
		r.toMaster()
	}
}

func (r *Router) toMaster() {
	r.state = StateMaster
	r.downTimer.Stop()
	if !r.nic.HasAddr(r.cfg.VIP) {
		if err := r.nic.AddAddr(r.cfg.VIP); err != nil {
			_ = err // AddAddr fails only on duplicates, which HasAddr excludes
		}
	}
	if err := r.host.SendGratuitousARP(r.nic, r.cfg.VIP); err != nil {
		_ = err // interface down; the next election will recover
	}
	r.sendAdvert()
	r.advertTimer.Reset(advertInterval)
}

// advertise is the master's periodic advertisement; it re-arms its own timer.
func (r *Router) advertise() {
	if r.state != StateMaster {
		return
	}
	r.sendAdvert()
	r.advertTimer.Reset(advertInterval)
}

func (r *Router) stepDown() {
	if r.state != StateMaster {
		return
	}
	if r.nic.HasAddr(r.cfg.VIP) {
		if err := r.nic.RemoveAddr(r.cfg.VIP); err != nil {
			_ = err
		}
	}
	r.toBackup()
}

func (r *Router) sendAdvert() {
	w := wire.NewWriter(16)
	w.U8(r.cfg.VRID)
	w.U8(r.cfg.Priority)
	dst := netip.AddrPortFrom(r.nic.Broadcast(), port)
	src := netip.AddrPortFrom(r.nic.Primary(), port)
	if err := r.host.SendUDP(src, dst, w.Bytes()); err != nil {
		_ = err // interface down during fault injection
	}
}

func (r *Router) onAdvert(from netip.Addr, payload []byte) {
	if !r.running || from == r.nic.Primary() {
		return
	}
	rd := wire.NewReader(payload)
	vrid := rd.U8()
	prio := rd.U8()
	if rd.Done() != nil || vrid != r.cfg.VRID {
		return
	}
	switch r.state {
	case stateBackup:
		if prio >= r.cfg.Priority || !r.cfg.Preempt {
			r.armDownTimer()
			return
		}
		// Preempt a lower-priority master.
		r.toMaster()
	case StateMaster:
		if prio > r.cfg.Priority {
			r.stepDown()
		}
		// Equal or lower priority: we keep mastership; the peer sees our
		// advertisements and steps down symmetrically.
	}
}
