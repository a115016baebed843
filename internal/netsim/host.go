package netsim

import (
	"errors"
	"fmt"
	"math"
	"net/netip"
	"slices"
	"sync/atomic"
	"time"

	"wackamole/internal/arp"
	"wackamole/internal/env"
	"wackamole/internal/obs"
	"wackamole/internal/sim"
)

// Errors reported by host networking operations.
var (
	errHostDown    = errors.New("netsim: host is down")
	errNICDown     = errors.New("netsim: interface is down")
	errNoRoute     = errors.New("netsim: no route to destination")
	errPortInUse   = errors.New("netsim: port already bound")
	errAddrInUse   = errors.New("netsim: address already configured")
	errAddrMissing = errors.New("netsim: address not configured")
)

// defaultARPTTL is how long a learned ARP entry stays valid. Real stacks use
// anywhere from tens of seconds to hours; ten minutes makes the cost of a
// stale entry visible in fail-over experiments without spoofing.
const defaultARPTTL = 10 * time.Minute

const (
	arpRetryInterval = 500 * time.Millisecond
	arpMaxRetries    = 3
	defaultTTL       = 64
)

// UDPHandler consumes a datagram delivered to a bound socket. A handler must
// not retain payload past its return: the buffer is recycled into the next
// datagram as soon as the handler is done with it.
type UDPHandler func(src, dst netip.AddrPort, payload []byte)

// Host is a simulated machine: a set of interfaces, a routing table, UDP
// sockets, and ARP state. Routers are Hosts with forwarding enabled.
type Host struct {
	net        *Network
	name       string
	nics       []*NIC
	alive      bool
	forwarding bool
	routes     []route
	sockets    map[uint32]*Socket // by port; a word key takes the runtime's fast map path
	arpTTL     time.Duration
	// procJitter models a loaded machine: every timer firing and inbound
	// frame is delayed by a uniform draw from [0, procJitter]. The paper's
	// §6 notes that on highly loaded machines the daemons should run with
	// real-time priority to avoid false-positive failure detections; this
	// knob reproduces the effect of not doing so.
	procJitter time.Duration
	// ignoreBroadcastGratuitousARP models devices that discard gratuitous
	// announcements arriving as broadcast frames but honour unicast ARP
	// replies addressed to them — the reason the paper's router application
	// shares ARP caches between daemons and spoofs each known host
	// individually (§5.2).
	ignoreBroadcastGratuitousARP bool
}

// route sends what it matches out of nic.
type route struct {
	routeKey
	nic *NIC
}

// routeKey is a route's identity. It matches dst when dst&mask == net; a
// longer prefix is a larger mask.
type routeKey struct {
	net, mask ip4
	gw        ip4
	onLink    bool // no gateway: the next hop is the destination itself
}

// Socket is a bound UDP endpoint on a host.
type Socket struct {
	addr    ip4
	anyAddr bool // wildcard bind: addr is unused
	handler UDPHandler
	// closed is atomic so that Close may race with a frame delivery running
	// on the simulation goroutine: tear-down code sometimes runs off-loop.
	// A delivery that observes the flag drops the datagram rather than invoke
	// the handler of a dead socket; one that read it just before Close still
	// runs.
	closed atomic.Bool
}

// NewHost creates a live host with no interfaces.
func (n *Network) NewHost(name string) *Host {
	h := &Host{
		net:     n,
		name:    name,
		alive:   true,
		sockets: map[uint32]*Socket{},
		arpTTL:  defaultARPTTL,
	}
	return h
}

// Name returns the host's label (also used as the probe server identity).
func (h *Host) Name() string { return h.name }

// Alive reports whether the host is running.
func (h *Host) Alive() bool { return h.alive }

// SetARPTTL overrides the ARP cache entry lifetime for all interfaces.
func (h *Host) SetARPTTL(ttl time.Duration) { h.arpTTL = ttl }

// SetProcessingJitter makes the host behave like a loaded machine: timers
// and inbound frames are delayed by up to max.
func (h *Host) SetProcessingJitter(max time.Duration) { h.procJitter = max }

// jitter draws one scheduling delay.
func (h *Host) jitter() time.Duration {
	if h.procJitter <= 0 {
		return 0
	}
	return time.Duration(h.net.sim.Rand().Int63n(int64(h.procJitter)))
}

// SetIgnoreBroadcastGratuitousARP makes the host discard broadcast-frame
// gratuitous announcements (unicast ARP replies still update its cache).
func (h *Host) SetIgnoreBroadcastGratuitousARP(v bool) { h.ignoreBroadcastGratuitousARP = v }

// EnableForwarding turns the host into a packet-forwarding router.
func (h *Host) EnableForwarding() { h.forwarding = true }

// Crash stops the host: interfaces go silent, timers stop firing, sockets
// deliver nothing. Configuration is retained for a later Restart; ARP
// resolutions in progress are soft state and die with the machine, so that a
// restarted host asks again instead of queueing behind a request whose retry
// timer fired, gated off, while it was down.
func (h *Host) Crash() {
	h.alive = false
	for _, nic := range h.nics {
		// In address order, so the pools see the records and buffers come
		// back in the same order on every run of a seed.
		ips := make([]ip4, 0, len(nic.pending))
		for ip := range nic.pending {
			ips = append(ips, ip)
		}
		slices.Sort(ips)
		for _, ip := range ips {
			h.dropPending(nic, ip)
		}
	}
	h.net.tracer.Emit(obs.Event{Source: obs.SourceNet, Kind: obs.KindFault, Node: h.name, Detail: "crash"})
}

// Restart brings a crashed host back with its configuration intact.
// Protocol state machines running on the host are responsible for their own
// recovery.
func (h *Host) Restart() {
	h.alive = true
	h.net.tracer.Emit(obs.Event{Source: obs.SourceNet, Kind: obs.KindRestore, Node: h.name, Detail: "restart"})
}

// Now returns the current virtual time.
func (h *Host) Now() time.Time { return h.net.sim.Now() }

// hostTimer is a host's env.Timer: the simulator record, the host whose
// liveness gates the callback at fire time, and the callback, in one
// allocation that every later Reset reuses.
type hostTimer struct {
	sim.Timer
	h *Host
	f func()
}

// Run fires the timer unless the host is down.
func (t *hostTimer) Run() {
	if t.h.alive {
		t.f()
	}
}

// Reset arms the timer d plus one processing-jitter draw from now.
func (t *hostTimer) Reset(d time.Duration) {
	t.Timer.Reset(time.Duration(addSat(int64(d), int64(t.h.jitter()))))
}

// addSat is a+b, saturating where adding a positive b would wrap.
func addSat(a, b int64) int64 {
	if sum := a + b; b <= 0 || sum > a {
		return sum
	}
	return math.MaxInt64
}

// NewTimer returns an unarmed timer on the simulator whose callback is gated
// on the host being alive at fire time. With Now and AfterFunc it makes the
// host an env.Clock.
func (h *Host) NewTimer(f func()) env.Timer {
	t := &hostTimer{h: h, f: f}
	h.net.sim.Init(&t.Timer, t)
	return t
}

// AfterFunc implements env.Clock.
func (h *Host) AfterFunc(d time.Duration, f func()) env.Timer {
	t := h.NewTimer(f)
	t.Reset(d)
	return t
}

var _ env.Clock = (*Host)(nil)

// NIC is a network interface: one MAC, one subnet, and a set of IPv4
// addresses (the stationary address plus any virtual addresses currently
// held). Virtual IP acquire/release in the paper's IP-address-control
// mechanism maps to AddAddr/RemoveAddr here.
type NIC struct {
	host    *Host
	seg     *Segment
	name    string
	mac     MAC
	up      bool
	group   int // partition group on seg; frames pass between equal groups
	prefix  netip.Prefix
	primary ip4
	bcast   ip4 // subnet broadcast address
	addrs   map[ip4]bool
	arp     map[ip4]arpEntry
	pending map[ip4]*arpPending
	// downErr is what a send through the interface returns while it is down,
	// formatted once.
	downErr error
	// Directional gray-failure impairments (armed by internal/faults).
	// txLoss/txDelay apply to frames this interface transmits, rxLoss/rxDelay
	// to frames it would receive — modelling asymmetric reachability, where a
	// link passes traffic one way but not the other. All four default to
	// zero, and every use in the transmit path is gated on the knob being
	// nonzero, so the default path draws exactly the same RNG sequence as it
	// did before the fault plane existed.
	txLoss  float64
	rxLoss  float64
	txDelay time.Duration
	rxDelay time.Duration
}

type arpEntry struct {
	mac     MAC
	expires int64 // last valid instant, nanoseconds of Sim.Elapsed
}

type arpPending struct {
	packets []*ipPacket
	retries int
	timer   env.Timer
}

// AttachNIC connects the host to seg with primary address addr (which also
// defines the subnet). The NIC comes up immediately.
func (h *Host) AttachNIC(seg *Segment, name string, addr netip.Prefix) *NIC {
	primary, ok := toIP4(addr.Addr())
	if !ok || !addr.IsValid() {
		panic(fmt.Sprintf("netsim: %s: only IPv4 is modelled, got %v", h.name, addr))
	}
	mac := h.net.nextMAC
	h.net.nextMAC++
	nic := &NIC{
		host:    h,
		seg:     seg,
		name:    name,
		mac:     mac,
		up:      true,
		prefix:  addr.Masked(),
		primary: primary,
		bcast:   primary | ^maskOf(addr.Bits()),
		addrs:   map[ip4]bool{primary: true},
		arp:     map[ip4]arpEntry{},
		pending: map[ip4]*arpPending{},
		downErr: fmt.Errorf("%w: %s/%s", errNICDown, h.name, name),
	}
	h.nics = append(h.nics, nic)
	seg.nics = append(seg.nics, nic)
	// Connected route for the subnet.
	h.AddRoute(nic.prefix, nic, netip.Addr{})
	return nic
}

// maskOf is the netmask of a prefix length.
func maskOf(bits int) ip4 { return ^ip4(0xFFFFFFFF >> bits) }

// MAC returns the interface's hardware address.
func (nic *NIC) MAC() MAC { return nic.mac }

// Primary returns the stationary address.
func (nic *NIC) Primary() netip.Addr { return nic.primary.addr() }

// Prefix returns the interface's subnet.
func (nic *NIC) Prefix() netip.Prefix { return nic.prefix }

// Host returns the owning host.
func (nic *NIC) Host() *Host { return nic.host }

// Up reports whether the interface is enabled.
func (nic *NIC) Up() bool { return nic.up }

// SetUp enables or disables the interface. Disabling models the paper's
// fault-injection method: "disconnecting the interface through which Spread,
// Wackamole, and the experimental server access the network".
func (nic *NIC) SetUp(up bool) {
	if nic.up == up {
		return
	}
	nic.up = up
	kind := obs.KindFault
	if up {
		kind = obs.KindRestore
	}
	nic.host.net.tracer.Emit(obs.Event{Source: obs.SourceNet, Kind: kind,
		Node: nic.host.name, Detail: nic.name})
}

// SetTxImpairment installs a loss probability and an added fixed delay on
// frames the interface transmits. Zero values clear the direction.
func (nic *NIC) SetTxImpairment(loss float64, delay time.Duration) {
	nic.txLoss, nic.txDelay = loss, delay
}

// SetRxImpairment installs a loss probability and an added fixed delay on
// frames the interface receives. Zero values clear the direction.
func (nic *NIC) SetRxImpairment(loss float64, delay time.Duration) {
	nic.rxLoss, nic.rxDelay = loss, delay
}

// ClearImpairments removes all directional loss and delay from the
// interface, restoring the clean-link behaviour.
func (nic *NIC) ClearImpairments() {
	nic.txLoss, nic.rxLoss, nic.txDelay, nic.rxDelay = 0, 0, 0, 0
}

// AddAddr configures an additional (virtual) address on the interface.
func (nic *NIC) AddAddr(a netip.Addr) error {
	ip, ok := toIP4(a)
	if !ok {
		return fmt.Errorf("netsim: only IPv4 is modelled, cannot add %v to %s/%s", a, nic.host.name, nic.name)
	}
	if nic.addrs[ip] {
		return fmt.Errorf("%w: %v on %s/%s", errAddrInUse, a, nic.host.name, nic.name)
	}
	nic.addrs[ip] = true
	return nil
}

// RemoveAddr drops an address from the interface. The primary address cannot
// be removed.
func (nic *NIC) RemoveAddr(a netip.Addr) error {
	ip, ok := toIP4(a)
	if ok && ip == nic.primary {
		return fmt.Errorf("netsim: cannot remove primary address %v from %s/%s", a, nic.host.name, nic.name)
	}
	if !ok || !nic.addrs[ip] {
		return fmt.Errorf("%w: %v on %s/%s", errAddrMissing, a, nic.host.name, nic.name)
	}
	delete(nic.addrs, ip)
	return nil
}

// HasAddr reports whether the interface currently answers for a.
func (nic *NIC) HasAddr(a netip.Addr) bool {
	ip, ok := toIP4(a)
	return ok && nic.addrs[ip]
}

// Broadcast returns the subnet broadcast address for the NIC.
func (nic *NIC) Broadcast() netip.Addr { return nic.bcast.addr() }

// isBroadcast reports whether a datagram to dst is a broadcast on the NIC's
// subnet: its directed broadcast address or the limited one.
func (nic *NIC) isBroadcast(dst ip4) bool { return dst == nic.bcast || dst == limitedBroadcast }

// ARPEntry reports the cached binding for ip, if present and fresh.
func (nic *NIC) ARPEntry(ip netip.Addr) (MAC, bool) {
	a, ok := toIP4(ip)
	if !ok {
		return 0, false
	}
	return nic.resolved(a)
}

func (nic *NIC) resolved(ip ip4) (MAC, bool) {
	e, ok := nic.arp[ip]
	if !ok || int64(nic.host.net.sim.Elapsed()) > e.expires {
		return 0, false
	}
	return e.mac, true
}

// learn caches the binding for the host's ARP TTL from now.
func (nic *NIC) learn(ip ip4, mac MAC) {
	now := int64(nic.host.net.sim.Elapsed())
	nic.arp[ip] = arpEntry{mac: mac, expires: addSat(now, int64(nic.host.arpTTL))}
}

// ARPEntries returns a copy of the interface's fresh cache entries. The
// ARP-cache-sharing mechanism of the paper's router application (§5.2)
// reads these, standing in for /proc/net/arp.
func (nic *NIC) ARPEntries() map[netip.Addr]MAC {
	now := int64(nic.host.net.sim.Elapsed())
	out := make(map[netip.Addr]MAC, len(nic.arp))
	for ip, e := range nic.arp {
		if now <= e.expires {
			out[ip.addr()] = e.mac
		}
	}
	return out
}

// routeKeyOf is the identity of the route to prefix via gw (invalid ⇒
// on-link); ok is false when either is something other than IPv4.
func routeKeyOf(prefix netip.Prefix, gw netip.Addr) (k routeKey, ok bool) {
	net, ok := toIP4(prefix.Masked().Addr())
	if !ok {
		return routeKey{}, false
	}
	k = routeKey{net: net, mask: maskOf(prefix.Bits()), onLink: !gw.IsValid()}
	if !k.onLink {
		k.gw, ok = toIP4(gw)
	}
	return k, ok
}

// AddRoute installs a static route. A valid gw makes it a gateway route;
// an invalid gw means on-link. Like AttachNIC it panics on anything but IPv4.
func (h *Host) AddRoute(prefix netip.Prefix, nic *NIC, gw netip.Addr) {
	k, ok := routeKeyOf(prefix, gw)
	if !ok {
		panic(fmt.Sprintf("netsim: %s: only IPv4 is modelled, got route %v via %v", h.name, prefix, gw))
	}
	h.routes = append(h.routes, route{routeKey: k, nic: nic})
}

// RemoveRoute deletes the first route exactly matching prefix and gateway.
// It reports whether a route was removed.
func (h *Host) RemoveRoute(prefix netip.Prefix, gw netip.Addr) bool {
	k, ok := routeKeyOf(prefix, gw)
	for i, r := range h.routes {
		if ok && r.routeKey == k {
			h.routes = append(h.routes[:i], h.routes[i+1:]...)
			return true
		}
	}
	return false
}

// SetDefaultGateway installs a 0.0.0.0/0 route via gw out of nic.
func (h *Host) SetDefaultGateway(nic *NIC, gw netip.Addr) {
	h.AddRoute(netip.PrefixFrom(netip.AddrFrom4([4]byte{}), 0), nic, gw)
}

// lookupRoute performs longest-prefix match; among equals the first installed
// wins.
func (h *Host) lookupRoute(dst ip4) (nic *NIC, nexthop ip4, ok bool) {
	best := int64(-1)
	for i := range h.routes {
		r := &h.routes[i]
		if dst&r.mask == r.net && int64(r.mask) > best {
			best = int64(r.mask)
			nic, nexthop, ok = r.nic, r.gw, true
			if r.onLink {
				nexthop = dst
			}
		}
	}
	return nic, nexthop, ok
}

// hasLocalAddr reports whether any interface answers for a.
func (h *Host) hasLocalAddr(a ip4) bool {
	for _, nic := range h.nics {
		if nic.addrs[a] {
			return true
		}
	}
	return false
}

// NICs returns the host's interfaces in attachment order.
func (h *Host) NICs() []*NIC {
	out := make([]*NIC, len(h.nics))
	copy(out, h.nics)
	return out
}

// BindUDP registers a handler for datagrams to (addr, port). An invalid addr
// binds the wildcard. One socket per port is supported, matching what the
// simulated workloads need.
func (h *Host) BindUDP(addr netip.Addr, port uint16, fn UDPHandler) (*Socket, error) {
	ip, ok := toIP4(addr)
	if !ok && addr.IsValid() {
		return nil, fmt.Errorf("netsim: only IPv4 is modelled, cannot bind %v on %s", addr, h.name)
	}
	if s, ok := h.sockets[uint32(port)]; ok && !s.closed.Load() {
		return nil, fmt.Errorf("%w: %s port %d", errPortInUse, h.name, port)
	}
	s := &Socket{addr: ip, anyAddr: !ok, handler: fn}
	h.sockets[uint32(port)] = s
	return s, nil
}

// Close unbinds the socket. Close only flips the atomic flag — it does not
// touch the host's socket map — so it is safe to call concurrently with the
// simulation loop; BindUDP reclaims the port by overwriting the closed
// socket's slot.
func (s *Socket) Close() {
	s.closed.Store(true)
}

// SendUDP transmits a copy of payload as one datagram; the caller may reuse
// its slice as soon as the call returns. The source address may be invalid,
// in which case the egress interface's primary address is used. Destinations
// equal to a local address are delivered locally (loopback); subnet broadcast
// destinations fan out on the segment and also loop back to local sockets.
func (h *Host) SendUDP(src, dst netip.AddrPort, payload []byte) error {
	return h.sendUDP(src, dst, payload, false)
}

// Network returns the network this host belongs to. Traffic generators use
// it to reach the payload-buffer pool that pairs with SendUDPOwned.
func (h *Host) Network() *Network { return h.net }

// SendUDPOwned is SendUDP without the copy: the caller hands payload,
// typically obtained from Network.GetBuf, over to the network and must not
// touch it after a successful call. On error the caller retains ownership.
func (h *Host) SendUDPOwned(src, dst netip.AddrPort, payload []byte) error {
	return h.sendUDP(src, dst, payload, true)
}

// sendUDP is the one outbound datagram path: route, build the packet, egress.
// Record and payload buffer always come from the network's pools. The sender
// holds the packet's first reference until the send returns, so a datagram
// that no consumer was scheduled for — interface down, peer dead, partitioned
// or lost to a loss draw — is recycled on the way out.
func (h *Host) sendUDP(src, dst netip.AddrPort, payload []byte, handedOver bool) error {
	if !h.alive {
		return errHostDown
	}
	to, ok := toIP4(dst.Addr())
	if !ok {
		return fmt.Errorf("%w: %v from %s", errNoRoute, dst.Addr(), h.name)
	}
	from, bound := toIP4(src.Addr())
	if !bound && src.Addr().IsValid() {
		return fmt.Errorf("netsim: only IPv4 is modelled, cannot send from %v on %s", src.Addr(), h.name)
	}
	local := h.hasLocalAddr(to)
	var nic *NIC
	var nexthop ip4
	if !local {
		if nic, nexthop, ok = h.lookupRoute(to); !ok {
			// Maybe a broadcast to a directly attached subnet.
			if nic = h.broadcastNIC(to); nic == nil {
				return fmt.Errorf("%w: %v from %s", errNoRoute, dst.Addr(), h.name)
			}
			nexthop = to
		}
	}
	if !handedOver {
		payload = h.net.copyBuf(payload)
	}
	p, _ := h.net.packets.get()
	*p = ipPacket{src: from, dst: to, ttl: defaultTTL,
		srcPort: src.Port(), dstPort: dst.Port(), payload: payload, refs: 1}
	var err error
	if local {
		if !bound {
			p.src = p.dst
		}
		h.deliverLocal(nil, p)
	} else {
		if !bound {
			p.src = nic.primary
		}
		if err = h.egress(nic, nexthop, p); err != nil && handedOver {
			p.payload = nil // caller keeps the buffer on error
		}
	}
	h.net.release(p)
	return err
}

// localDelivery is the pooled event that hands a datagram to the sending
// host's own sockets: a loop-back send, or (nic set) the sender's copy of a
// subnet broadcast, which it hears only if the interface is still up.
type localDelivery struct {
	timer sim.Timer // runs the event; initialised once, when it is carved
	h     *Host
	nic   *NIC
	p     *ipPacket
}

// Run delivers the datagram, recycling the event first as deliveryJob does.
func (j *localDelivery) Run() {
	h, nic, p := j.h, j.nic, j.p
	j.h, j.nic, j.p = nil, nil, nil
	h.net.locals.put(j)
	if h.alive && (nic == nil || nic.up) {
		h.deliverUDP(p)
	} else {
		h.net.release(p)
	}
}

// deliverLocal schedules p for the host's own sockets, taking the event's
// reference to it.
func (h *Host) deliverLocal(nic *NIC, p *ipPacket) {
	j, carved := h.net.locals.get()
	if carved {
		h.net.sim.Init(&j.timer, j)
	}
	j.h, j.nic, j.p = h, nic, p
	p.refs++
	j.timer.Reset(10 * time.Microsecond)
}

// broadcastNIC returns the NIC whose subnet broadcast (or the limited
// broadcast address) matches dst.
func (h *Host) broadcastNIC(dst ip4) *NIC {
	for _, nic := range h.nics {
		if nic.isBroadcast(dst) {
			return nic
		}
	}
	return nil
}

// egress pushes p out of nic towards nexthop, resolving ARP as needed. The
// caller holds a reference to p across the call; whatever egress schedules or
// queues takes its own.
func (h *Host) egress(nic *NIC, nexthop ip4, p *ipPacket) error {
	if !nic.up {
		return nic.downErr
	}
	if nic.isBroadcast(p.dst) {
		nic.seg.transmit(nic, frame{dst: broadcastMAC, kind: frameIPv4, pkt: p})
		// Local sockets also hear subnet broadcasts.
		h.deliverLocal(nic, p)
		return nil
	}
	if mac, ok := nic.resolved(nexthop); ok {
		nic.seg.transmit(nic, frame{dst: mac, kind: frameIPv4, pkt: p})
		return nil
	}
	h.arpResolve(nic, nexthop, p)
	return nil
}

// arpResolve queues p and issues an ARP request for ip, with bounded retry.
func (h *Host) arpResolve(nic *NIC, ip ip4, p *ipPacket) {
	p.refs++ // the queue slot's
	pend, ok := nic.pending[ip]
	if ok {
		pend.packets = append(pend.packets, p)
		return
	}
	pend = &arpPending{packets: []*ipPacket{p}}
	nic.pending[ip] = pend
	h.sendARPRequest(nic, ip)
	pend.timer = h.NewTimer(func() {
		cur, still := nic.pending[ip]
		if !still || cur != pend {
			return
		}
		if pend.retries >= arpMaxRetries {
			h.dropPending(nic, ip)
			return
		}
		pend.retries++
		h.sendARPRequest(nic, ip)
		pend.timer.Reset(arpRetryInterval)
	})
	pend.timer.Reset(arpRetryInterval)
}

// dropPending ends the resolution of ip on nic: the retry timer stops and
// every queued datagram loses its queue slot.
func (h *Host) dropPending(nic *NIC, ip ip4) {
	pend := nic.pending[ip]
	delete(nic.pending, ip)
	pend.timer.Stop()
	for _, p := range pend.packets {
		h.net.release(p)
	}
}

func (h *Host) sendARPRequest(nic *NIC, ip ip4) {
	if !nic.up {
		return
	}
	req := arp.Packet{
		Op:        arp.OpRequest,
		SenderMAC: nic.mac.Bytes(),
		SenderIP:  nic.primary.addr(),
		TargetIP:  ip.addr(),
	}
	payload, err := req.Encode()
	if err != nil {
		return
	}
	nic.seg.transmit(nic, frame{dst: broadcastMAC, kind: frameARP, arp: payload})
}

// SendGratuitousARP broadcasts a gratuitous ARP reply announcing that this
// interface answers for ip. This is the mechanism Wackamole's
// platform-specific code uses to update router caches after a take-over.
func (h *Host) SendGratuitousARP(nic *NIC, ip netip.Addr) error {
	return h.SendSpoofedARP(nic, ip, broadcastMAC)
}

// SendSpoofedARP sends an unsolicited ARP reply claiming <ip, nic.mac> to a
// specific destination MAC (or broadcast). The paper's §5.1 describes
// exactly this: "spoofing of ARP reply packets to force updates to the
// router ARP cache".
func (h *Host) SendSpoofedARP(nic *NIC, ip netip.Addr, dst MAC) error {
	if !h.alive {
		return errHostDown
	}
	if !nic.up {
		return nic.downErr
	}
	rep := arp.Packet{
		Op:        arp.OpReply,
		SenderMAC: nic.mac.Bytes(),
		SenderIP:  ip,
		TargetMAC: dst.Bytes(),
		TargetIP:  ip, // gratuitous form: sender == target
	}
	payload, err := rep.Encode()
	if err != nil {
		return fmt.Errorf("netsim: encode spoofed ARP: %w", err)
	}
	h.net.counters.ARPSpoofs++
	if h.net.tracer.Enabled() {
		detail := "unicast"
		if dst == broadcastMAC {
			detail = "broadcast"
		}
		h.net.tracer.Emit(obs.Event{Source: obs.SourceNet, Kind: obs.KindARPSpoof,
			Node: h.name, Addr: ip.String(), Detail: detail})
	}
	nic.seg.transmit(nic, frame{dst: dst, kind: frameARP, arp: payload})
	return nil
}

// receiveFrame is the inbound path for a frame accepted by nic.
func (h *Host) receiveFrame(nic *NIC, fr frame) {
	switch fr.kind {
	case frameARP:
		h.receiveARP(nic, fr)
	case frameIPv4:
		h.receiveIP(nic, fr)
	}
}

func (h *Host) receiveARP(nic *NIC, fr frame) {
	p, err := arp.Decode(fr.arp)
	if err != nil {
		return
	}
	senderMAC := MACFromBytes(p.SenderMAC)
	// Decode yields IPv4 addresses only, so neither conversion can fail.
	sender, _ := toIP4(p.SenderIP)
	target, _ := toIP4(p.TargetIP)
	targetIsUs := nic.addrs[target]

	_, known := nic.arp[sender]
	// Standard cache maintenance: update an existing entry on any ARP
	// traffic from the sender; create a new entry when we are the target or
	// when the packet answers an outstanding resolution.
	_, awaited := nic.pending[sender]
	discard := h.ignoreBroadcastGratuitousARP && p.IsGratuitous() && fr.dst == broadcastMAC && !awaited
	if !discard && (known || targetIsUs || awaited) {
		nic.learn(sender, senderMAC)
	}
	if awaited {
		h.flushPending(nic, sender, senderMAC)
	}

	if p.Op == arp.OpRequest && targetIsUs {
		rep := arp.Packet{
			Op:        arp.OpReply,
			SenderMAC: nic.mac.Bytes(),
			SenderIP:  p.TargetIP,
			TargetMAC: p.SenderMAC,
			TargetIP:  p.SenderIP,
		}
		payload, err := rep.Encode()
		if err != nil {
			return
		}
		nic.seg.transmit(nic, frame{dst: senderMAC, kind: frameARP, arp: payload})
	}
}

func (h *Host) flushPending(nic *NIC, ip ip4, mac MAC) {
	pend, ok := nic.pending[ip]
	if !ok {
		return
	}
	if nic.up {
		for _, p := range pend.packets {
			nic.seg.transmit(nic, frame{dst: mac, kind: frameIPv4, pkt: p})
		}
	}
	h.dropPending(nic, ip)
}

// receiveIP is where a delivered frame's reference to its packet ends: each
// branch below consumes it.
func (h *Host) receiveIP(nic *NIC, fr frame) {
	p := fr.pkt
	switch {
	case nic.addrs[p.dst] || nic.isBroadcast(p.dst):
		h.deliverUDP(p)
	case h.forwarding:
		h.forward(p)
	default:
		// Not for us and not forwarding: drop silently, as a real stack would.
		h.net.release(p)
	}
}

func (h *Host) forward(p *ipPacket) {
	if p.ttl <= 1 {
		h.net.release(p)
		return
	}
	nic, nexthop, ok := h.lookupRoute(p.dst)
	if !ok {
		h.net.release(p)
		return
	}
	if p.refs > 1 {
		// Other receivers of a broadcast frame still hold this record, so
		// the hop count must not be decremented in place: forward a copy.
		cp, _ := h.net.packets.get()
		*cp = *p
		cp.payload, cp.refs = h.net.copyBuf(p.payload), 1
		h.net.release(p)
		p = cp
	}
	p.ttl--
	// A down egress interface drops the hop, as a real router would.
	_ = h.egress(nic, nexthop, p)
	h.net.release(p)
}

func (h *Host) deliverUDP(p *ipPacket) {
	if s, ok := h.sockets[uint32(p.dstPort)]; ok && !s.closed.Load() && (s.anyAddr || s.addr == p.dst) {
		src := netip.AddrPortFrom(p.src.addr(), p.srcPort)
		dst := netip.AddrPortFrom(p.dst.addr(), p.dstPort)
		s.handler(src, dst, p.payload)
	}
	// Whether or not a handler ran, this consumer is done with the datagram
	// (the UDPHandler contract).
	h.net.release(p)
}
