// Package fake implements the Linux Fake project's fail-over scheme, a
// baseline discussed in the paper's related work (§7): a backup server
// regularly probes the availability of the main server's service and, upon
// detecting failure, instantiates the virtual IP interface and sends a
// gratuitous ARP to accelerate the transition. Unlike Wackamole, the scheme
// is pairwise (one designated backup per main) and probes at the
// application level.
package fake

import (
	"fmt"
	"net/netip"
	"time"

	"wackamole/internal/env"
	"wackamole/internal/netsim"
)

const (
	// probeInterval separates service probes.
	probeInterval = time.Second
	// failThreshold is how many consecutive missed probes declare the main
	// server dead.
	failThreshold = 3
)

// Config parameterizes a Monitor.
type Config struct {
	// Target is the probed service (the virtual address and port served by
	// the main server).
	Target netip.AddrPort
	// VIP is the address to take over; usually Target's address.
	VIP netip.Addr
	// LocalPort for probe traffic.
	LocalPort uint16
}

// Monitor runs on the backup server, probing the main service and taking
// the virtual address over when it stops answering.
type Monitor struct {
	host *netsim.Host
	nic  *netsim.NIC
	cfg  Config

	timer     env.Timer
	running   bool
	misses    int
	answered  bool
	tookOver  bool
	TakenOver func() // optional observer
}

// New builds a Monitor on the backup host.
func New(host *netsim.Host, nic *netsim.NIC, cfg Config) (*Monitor, error) {
	if !cfg.Target.IsValid() || !cfg.VIP.IsValid() {
		return nil, fmt.Errorf("fake: target and vip are required")
	}
	m := &Monitor{host: host, nic: nic, cfg: cfg}
	if _, err := host.BindUDP(netip.Addr{}, cfg.LocalPort, func(_, _ netip.AddrPort, _ []byte) {
		m.answered = true
	}); err != nil {
		return nil, fmt.Errorf("fake: %w", err)
	}
	m.timer = host.NewTimer(m.tick)
	return m, nil
}

// Start begins probing.
func (m *Monitor) Start() {
	if m.running {
		return
	}
	m.running = true
	m.answered = false
	m.probe()
	m.timer.Reset(probeInterval)
}

// tick judges the last probe and sends the next, re-arming the monitor's timer.
func (m *Monitor) tick() {
	if m.tookOver {
		return
	}
	if m.answered {
		m.misses = 0
	} else {
		m.misses++
		if m.misses >= failThreshold {
			m.takeover()
			return
		}
	}
	m.answered = false
	m.probe()
	m.timer.Reset(probeInterval)
}

func (m *Monitor) probe() {
	src := netip.AddrPortFrom(netip.Addr{}, m.cfg.LocalPort)
	if err := m.host.SendUDP(src, m.cfg.Target, []byte("fake-probe")); err != nil {
		_ = err // probing a dead address; counted as a miss
	}
}

func (m *Monitor) takeover() {
	m.tookOver = true
	if !m.nic.HasAddr(m.cfg.VIP) {
		if err := m.nic.AddAddr(m.cfg.VIP); err != nil {
			_ = err
		}
	}
	if err := m.host.SendGratuitousARP(m.nic, m.cfg.VIP); err != nil {
		_ = err
	}
	if m.TakenOver != nil {
		m.TakenOver()
	}
}
