// Package rip implements a small distance-vector routing protocol in the
// style of RIP (the paper cites RIP and OSPF as the dynamic routing
// protocols whose reconvergence delays §5.2 discusses). Routers broadcast
// their route vectors periodically on every interface; listeners install
// learned routes into the host forwarding table with split-horizon
// suppression and hold-down expiry.
//
// The §5.2 virtual-router experiment uses it to reproduce the paper's
// claim: a fail-over router that only joins the routing protocol upon
// becoming active must wait for the next periodic advertisement (≈30
// seconds), while a setup in which all fail-over routers participate
// continuously resumes as soon as Wackamole reassigns the virtual
// addresses.
package rip

import (
	"fmt"
	"net/netip"
	"time"

	"wackamole/internal/env"
	"wackamole/internal/netsim"
	"wackamole/internal/wire"
)

// port is RIP's UDP port.
const port = 520

// infinity is the unreachable metric.
const infinity = 16

// Timers per classic RIP.
const (
	// DefaultAdvertisePeriod separates periodic updates.
	DefaultAdvertisePeriod = 30 * time.Second
	// routeTimeout is how long a learned route lives without a refresh.
	routeTimeout = 180 * time.Second
)

// Config parameterizes a Process.
type Config struct {
	// AdvertisePeriod between periodic updates; zero means 30s.
	AdvertisePeriod time.Duration
}

func (c Config) period() time.Duration {
	if c.AdvertisePeriod <= 0 {
		return DefaultAdvertisePeriod
	}
	return c.AdvertisePeriod
}

// Process is one router's RIP instance.
type Process struct {
	host *netsim.Host
	cfg  Config

	sock    *netsim.Socket
	timer   env.Timer
	running bool
	learned map[netip.Prefix]*route
}

type route struct {
	metric    int
	nexthop   netip.Addr
	learnedOn *netsim.NIC
	expires   time.Time
}

// New builds a RIP process on host. Call Start to join the protocol.
func New(host *netsim.Host, cfg Config) (*Process, error) {
	p := &Process{host: host, cfg: cfg, learned: map[netip.Prefix]*route{}}
	sock, err := host.BindUDP(netip.Addr{}, port, p.onUpdate)
	if err != nil {
		return nil, fmt.Errorf("rip: %w", err)
	}
	p.sock = sock
	p.timer = host.NewTimer(p.tick)
	return p, nil
}

// Start begins advertising and accepting updates. The first advertisement
// goes out immediately; learning, however, waits for neighbours' periodic
// updates — the source of the §5.2 delay.
func (p *Process) Start() {
	if p.running {
		return
	}
	p.running = true
	p.tick()
}

// tick is one advertisement period; it re-arms the process's timer.
func (p *Process) tick() {
	if !p.running {
		return
	}
	p.expireRoutes()
	p.advertise()
	p.timer.Reset(p.cfg.period())
}

// Stop halts the process, uninstalling every learned route.
func (p *Process) Stop() {
	if !p.running {
		return
	}
	p.running = false
	p.timer.Stop()
	p.sock.Close()
	for prefix, r := range p.learned {
		p.host.RemoveRoute(prefix, r.nexthop)
		delete(p.learned, prefix)
	}
}

func (p *Process) expireRoutes() {
	now := p.host.Now()
	for prefix, r := range p.learned {
		if now.After(r.expires) {
			p.host.RemoveRoute(prefix, r.nexthop)
			delete(p.learned, prefix)
		}
	}
}

// advertise broadcasts the route vector on every interface, with
// split-horizon: routes learned on an interface are not re-advertised
// through it.
func (p *Process) advertise() {
	for _, nic := range p.host.NICs() {
		if !nic.Up() {
			continue
		}
		w := wire.NewWriter(128)
		var entries []struct {
			prefix netip.Prefix
			metric int
		}
		for _, connected := range p.host.NICs() {
			entries = append(entries, struct {
				prefix netip.Prefix
				metric int
			}{connected.Prefix(), 1})
		}
		for prefix, r := range p.learned {
			if r.learnedOn == nic {
				continue
			}
			entries = append(entries, struct {
				prefix netip.Prefix
				metric int
			}{prefix, r.metric})
		}
		w.U16(uint16(len(entries)))
		for _, e := range entries {
			a := e.prefix.Addr().As4()
			w.U8(a[0])
			w.U8(a[1])
			w.U8(a[2])
			w.U8(a[3])
			w.U8(uint8(e.prefix.Bits()))
			w.U8(uint8(e.metric))
		}
		src := netip.AddrPortFrom(nic.Primary(), port)
		dst := netip.AddrPortFrom(nic.Broadcast(), port)
		if err := p.host.SendUDP(src, dst, w.Bytes()); err != nil {
			_ = err // interface flaps during fault experiments
		}
	}
}

func (p *Process) onUpdate(srcAP, _ netip.AddrPort, payload []byte) {
	if !p.running {
		return
	}
	src := srcAP.Addr()
	// Identify the receiving interface by subnet and ignore our own
	// broadcasts looping back.
	var in *netsim.NIC
	for _, nic := range p.host.NICs() {
		if nic.Primary() == src {
			return
		}
		if nic.Prefix().Contains(src) {
			in = nic
		}
	}
	if in == nil {
		return
	}
	r := wire.NewReader(payload)
	n := int(r.U16())
	now := p.host.Now()
	for i := 0; i < n; i++ {
		a := [4]byte{r.U8(), r.U8(), r.U8(), r.U8()}
		bits := int(r.U8())
		metric := int(r.U8()) + 1
		if r.Err() != nil {
			return
		}
		prefix, err := netip.AddrFrom4(a).Prefix(bits)
		if err != nil || metric >= infinity {
			continue
		}
		// Skip our own connected networks.
		connected := false
		for _, nic := range p.host.NICs() {
			if nic.Prefix() == prefix {
				connected = true
			}
		}
		if connected {
			continue
		}
		cur, ok := p.learned[prefix]
		switch {
		case !ok, metric < cur.metric, cur.nexthop == src:
			if ok {
				p.host.RemoveRoute(prefix, cur.nexthop)
			}
			p.learned[prefix] = &route{metric: metric, nexthop: src, learnedOn: in, expires: now.Add(routeTimeout)}
			p.host.AddRoute(prefix, in, src)
		}
	}
}
