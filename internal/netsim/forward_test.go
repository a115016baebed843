package netsim

import (
	"net/netip"
	"testing"
	"time"

	"wackamole/internal/sim"
)

// countDeliveries binds port on every host given and counts the datagrams
// their sockets receive.
func countDeliveries(t *testing.T, port uint16, hosts ...*Host) *int {
	t.Helper()
	n := new(int)
	for _, h := range hosts {
		if _, err := h.BindUDP(netip.Addr{}, port, func(_, _ netip.AddrPort, _ []byte) { *n++ }); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

func TestRoutingLoopTerminatesViaTTL(t *testing.T) {
	s := sim.New(1)
	nw := New(s)
	seg := nw.NewSegment("lan", DefaultSegmentConfig())

	// Two routers pointing their default routes at each other: a packet to
	// an off-link destination must bounce until TTL expiry, not forever.
	a := nw.NewHost("a")
	an := a.AttachNIC(seg, "eth0", netip.MustParsePrefix("10.0.0.1/24"))
	a.EnableForwarding()
	a.SetDefaultGateway(an, netip.MustParseAddr("10.0.0.2"))
	b := nw.NewHost("b")
	bn := b.AttachNIC(seg, "eth0", netip.MustParsePrefix("10.0.0.2/24"))
	b.EnableForwarding()
	b.SetDefaultGateway(bn, netip.MustParseAddr("10.0.0.1"))
	delivered := countDeliveries(t, 80, a, b)

	if err := a.SendUDP(netip.AddrPort{}, netip.AddrPortFrom(netip.MustParseAddr("203.0.113.9"), 80), []byte("x")); err != nil {
		t.Fatal(err)
	}
	s.RunFor(10 * time.Second)
	// One frame per hop until the hop count ran out, plus a's resolution of b.
	if n := nw.Counters().FramesSent; n < defaultTTL || n >= 2*defaultTTL {
		t.Fatalf("%d frames sent, want one per hop of a %d-hop lifetime", n, defaultTTL)
	}
	if *delivered != 0 {
		t.Fatalf("%d deliveries of a datagram nobody is addressed by", *delivered)
	}
	if s.Pending() != 0 {
		t.Fatalf("%d events still pending after the loop should have died", s.Pending())
	}
	if n := nw.PacketsOutstanding(); n != 0 {
		t.Fatalf("%d packet records not recycled at TTL expiry", n)
	}
}

func TestForwardWithoutRouteDrops(t *testing.T) {
	s := sim.New(2)
	nw := New(s)
	inside := nw.NewSegment("inside", DefaultSegmentConfig())
	outside := nw.NewSegment("outside", DefaultSegmentConfig())

	r := nw.NewHost("router")
	r.AttachNIC(inside, "in", netip.MustParsePrefix("10.0.0.1/24"))
	r.AttachNIC(outside, "out", netip.MustParsePrefix("192.168.1.1/24"))
	r.EnableForwarding()

	h := nw.NewHost("h")
	hn := h.AttachNIC(inside, "eth0", netip.MustParsePrefix("10.0.0.10/24"))
	h.SetDefaultGateway(hn, netip.MustParseAddr("10.0.0.1"))
	delivered := countDeliveries(t, 80, r, h)

	// Destination outside both connected subnets and with no route at the
	// router.
	if err := h.SendUDP(netip.AddrPort{}, netip.AddrPortFrom(netip.MustParseAddr("203.0.113.9"), 80), []byte("x")); err != nil {
		t.Fatal(err)
	}
	s.RunFor(2 * time.Second)
	// h's resolution of the router and the datagram; nothing goes out the
	// other side.
	if n := nw.Counters().FramesSent; n != 3 {
		t.Fatalf("%d frames sent, want 3: the router forwarded an unroutable packet", n)
	}
	if *delivered != 0 {
		t.Fatalf("%d deliveries of an unroutable datagram", *delivered)
	}
	if s.Pending() != 0 {
		t.Fatalf("%d events still pending after the drop", s.Pending())
	}
	if n := nw.PacketsOutstanding(); n != 0 {
		t.Fatalf("%d packet records not recycled at the drop", n)
	}
}

func TestRemoveRoute(t *testing.T) {
	s := sim.New(3)
	nw := New(s)
	seg := nw.NewSegment("lan", DefaultSegmentConfig())
	h := nw.NewHost("h")
	nic := h.AttachNIC(seg, "eth0", netip.MustParsePrefix("10.0.0.1/24"))
	pfx := netip.MustParsePrefix("203.0.113.0/24")
	gw := netip.MustParseAddr("10.0.0.254")
	h.AddRoute(pfx, nic, gw)
	if !h.RemoveRoute(pfx, gw) {
		t.Fatal("RemoveRoute failed to find the route")
	}
	if h.RemoveRoute(pfx, gw) {
		t.Fatal("RemoveRoute removed a nonexistent route")
	}
}

func TestARPPendingQueueFlushedOnReply(t *testing.T) {
	s, _, _, hosts := lan(t, 4, 2)
	a, b := hosts[0], hosts[1]
	got := 0
	if _, err := b.BindUDP(netip.Addr{}, 7000, func(_, _ netip.AddrPort, _ []byte) { got++ }); err != nil {
		t.Fatal(err)
	}
	// Three packets queued behind one ARP resolution must all arrive.
	dst := netip.AddrPortFrom(addr("10.0.0.2"), 7000)
	for i := 0; i < 3; i++ {
		if err := a.SendUDP(netip.AddrPort{}, dst, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	if got != 3 {
		t.Fatalf("delivered %d of 3 queued packets", got)
	}
}

func TestARPResolutionGivesUpAfterRetries(t *testing.T) {
	s := sim.New(5)
	nw := New(s)
	seg := nw.NewSegment("lan", DefaultSegmentConfig())
	a := nw.NewHost("a")
	nic := a.AttachNIC(seg, "eth0", netip.MustParsePrefix("10.0.0.1/24"))
	delivered := countDeliveries(t, 7000, a)
	// Nobody answers for this address.
	if err := a.SendUDP(netip.AddrPort{}, netip.AddrPortFrom(addr("10.0.0.99"), 7000), []byte("x")); err != nil {
		t.Fatal(err)
	}
	s.RunFor(10 * time.Second)
	// The first request and its retries; the datagram never leaves.
	if n := nw.Counters().FramesSent; n != 1+arpMaxRetries {
		t.Fatalf("%d frames sent, want %d ARP requests and no datagram", n, 1+arpMaxRetries)
	}
	if len(nic.pending) != 0 {
		t.Fatal("the resolution is still pending after giving up")
	}
	if *delivered != 0 {
		t.Fatalf("%d deliveries of a datagram to an address nobody holds", *delivered)
	}
	if s.Pending() != 0 {
		t.Fatal("retry timers leaked")
	}
	if n := nw.PacketsOutstanding(); n != 0 {
		t.Fatalf("%d packet records not recycled when the resolution gave up", n)
	}
}

func TestCrashedHostDoesNotAnswerARP(t *testing.T) {
	s, _, _, hosts := lan(t, 6, 2)
	a, b := hosts[0], hosts[1]
	b.Crash()
	if err := a.SendUDP(netip.AddrPort{}, netip.AddrPortFrom(addr("10.0.0.2"), 7000), []byte("x")); err != nil {
		t.Fatal(err)
	}
	s.RunFor(5 * time.Second)
	if _, ok := a.NICs()[0].ARPEntry(addr("10.0.0.2")); ok {
		t.Fatal("resolved a crashed host")
	}
	b.Restart()
	if err := a.SendUDP(netip.AddrPort{}, netip.AddrPortFrom(addr("10.0.0.2"), 7000), []byte("x")); err != nil {
		t.Fatal(err)
	}
	s.RunFor(5 * time.Second)
	if _, ok := a.NICs()[0].ARPEntry(addr("10.0.0.2")); !ok {
		t.Fatal("could not resolve the restarted host")
	}
}

func TestSendThroughDownNICFails(t *testing.T) {
	_, _, _, hosts := lan(t, 7, 2)
	a := hosts[0]
	a.NICs()[0].SetUp(false)
	// Cached-entry path: force an entry so egress reaches the NIC check.
	seedARP(a.NICs()[0], addr("10.0.0.2"), 1)
	err := a.SendUDP(netip.AddrPort{}, netip.AddrPortFrom(addr("10.0.0.255"), 7000), []byte("x"))
	if err == nil {
		t.Fatal("broadcast through a downed NIC succeeded")
	}
	if err := a.SendUDP(netip.AddrPort{}, netip.AddrPortFrom(addr("10.0.0.2"), 7000), []byte("x")); err == nil {
		t.Fatal("unicast through a downed NIC succeeded")
	}
}

func TestCrashedHostSendFails(t *testing.T) {
	_, _, _, hosts := lan(t, 8, 1)
	hosts[0].Crash()
	if err := hosts[0].SendUDP(netip.AddrPort{}, netip.AddrPortFrom(addr("10.0.0.2"), 7000), []byte("x")); err == nil {
		t.Fatal("crashed host sent a packet")
	}
	if err := hosts[0].SendGratuitousARP(hosts[0].NICs()[0], addr("10.0.0.100")); err == nil {
		t.Fatal("crashed host sent gratuitous ARP")
	}
}

// lanNet is like lan but also returns the Network.
func lanNet(t *testing.T, seed int64, n int) (*sim.Sim, *Network, *Segment, []*Host) {
	t.Helper()
	s := sim.New(seed)
	nw := New(s)
	seg := nw.NewSegment("lan", DefaultSegmentConfig())
	hosts := make([]*Host, n)
	for i := range hosts {
		h := nw.NewHost(string(rune('a' + i)))
		h.AttachNIC(seg, "eth0", mustPrefix(t, netip.AddrFrom4([4]byte{10, 0, 0, byte(i + 1)}).String()+"/24"))
		hosts[i] = h
	}
	return s, nw, seg, hosts
}

func TestARPAnnouncerPicksNICBySubnet(t *testing.T) {
	s := sim.New(10)
	nw := New(s)
	segA := nw.NewSegment("a", DefaultSegmentConfig())
	segB := nw.NewSegment("b", DefaultSegmentConfig())

	r := nw.NewHost("router")
	r.AttachNIC(segA, "a", mustPrefix(t, "10.0.0.2/24"))
	r.AttachNIC(segB, "b", mustPrefix(t, "192.168.1.2/24"))

	// Observers with stale entries on each segment.
	obsA := nw.NewHost("obsA")
	na := obsA.AttachNIC(segA, "eth0", mustPrefix(t, "10.0.0.50/24"))
	obsB := nw.NewHost("obsB")
	nb := obsB.AttachNIC(segB, "eth0", mustPrefix(t, "192.168.1.50/24"))
	vipA := addr("10.0.0.100")
	vipB := addr("192.168.1.100")
	seedARP(na, vipA, 0xDEAD)
	seedARP(nb, vipB, 0xBEEF)

	ann := &ARPAnnouncer{Host: r}
	ann.Announce(vipA)
	ann.Announce(vipB)
	s.Run()
	if mac, _ := na.ARPEntry(vipA); mac != r.NICs()[0].MAC() {
		t.Fatalf("segment-a observer has %v, want the router's a-side MAC", mac)
	}
	if mac, _ := nb.ARPEntry(vipB); mac != r.NICs()[1].MAC() {
		t.Fatalf("segment-b observer has %v, want the router's b-side MAC", mac)
	}
	// Cross-segment announcements must not leak.
	if _, ok := na.ARPEntry(vipB); ok {
		t.Fatal("b-side VIP announced on segment a")
	}
}

func TestARPAnnouncerDisabledAndOffSubnet(t *testing.T) {
	s := sim.New(11)
	nw := New(s)
	seg := nw.NewSegment("lan", DefaultSegmentConfig())
	h := nw.NewHost("h")
	obs := nw.NewHost("obs")
	on := obs.AttachNIC(seg, "eth0", mustPrefix(t, "10.0.0.50/24"))
	h.AttachNIC(seg, "eth0", mustPrefix(t, "10.0.0.2/24"))
	vip := addr("10.0.0.100")
	seedARP(on, vip, 0xDEAD)

	disabled := &ARPAnnouncer{Host: h, Disabled: true}
	disabled.Announce(vip)
	s.Run()
	if mac, _ := on.ARPEntry(vip); mac != 0xDEAD {
		t.Fatal("disabled announcer still announced")
	}
	// An address on no local subnet is a no-op, not a panic.
	(&ARPAnnouncer{Host: h}).Announce(addr("203.0.113.9"))
	(&ARPAnnouncer{Host: h}).Withdraw(vip)
	s.Run()
}

func TestAccessors(t *testing.T) {
	s, nw, seg, hosts := lanNet(t, 12, 2)
	h := hosts[0]
	nic := h.NICs()[0]
	if h.Name() != "a" || !h.Alive() || !nic.Up() {
		t.Fatal("basic accessors wrong")
	}
	if nic.Host() != h || seg.PartitionGroup(nic) != 0 {
		t.Fatal("topology accessors wrong")
	}
	if nw.Sim() != s {
		t.Fatal("network accessors wrong")
	}
	if err := nic.AddAddr(addr("10.0.0.200")); err != nil {
		t.Fatal(err)
	}
	if !nic.HasAddr(addr("10.0.0.1")) || !nic.HasAddr(addr("10.0.0.200")) {
		t.Fatal("HasAddr misses a configured address")
	}
	if err := h.SendUDP(netip.AddrPort{}, netip.AddrPortFrom(addr("10.0.0.2"), 7000), []byte("x")); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if len(nic.ARPEntries()) == 0 {
		t.Fatal("ARPEntries empty after resolution")
	}
	// Inverted latency bounds are normalized.
	inv := nw.NewSegment("weird", SegmentConfig{LatencyMin: time.Millisecond, LatencyMax: 0})
	if inv.cfg.LatencyMax != time.Millisecond {
		t.Fatalf("latency bounds not normalized: %+v", inv.cfg)
	}
}
