package netsim

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"net/netip"
	"slices"
	"testing"
	"time"

	"wackamole/internal/sim"
)

// Addresses the simulator cannot model. Every entry point that takes a
// netip.Addr must turn them away with an error or a plain false.
var notIPv4 = []netip.Addr{
	{},
	netip.MustParseAddr("2001:db8::1"),
	netip.MustParseAddr("::ffff:10.0.0.1"), // IPv4-mapped: Is4 is false
}

// TestIntegerStateMatchesNetipModel drives random configuration changes
// against the specification the word-keyed tables implement, written the
// obvious way: map[netip.Addr] for address sets and ARP caches with time.Time
// expiry, netip.Prefix.Contains for routes (longest prefix, first installed of
// equals), a map for partition groups. Every query the package offers must
// agree with the model after every step.
func TestIntegerStateMatchesNetipModel(t *testing.T) {
	type arpModel struct {
		mac     MAC
		expires time.Time
	}
	type routeModel struct {
		prefix netip.Prefix
		nic    *NIC
		gw     netip.Addr
	}
	type nicModel struct {
		addrs map[netip.Addr]bool
		arp   map[netip.Addr]arpModel
	}
	// Candidate addresses: on and off the subnets, the broadcast addresses,
	// and the unmodellable ones.
	candidates := slices.Clone(notIPv4)
	for i := 0; i < 24; i++ {
		candidates = append(candidates, netip.AddrFrom4([4]byte{10, 0, 0, byte(i * 11)}))
	}
	for _, a := range []string{"10.0.1.5", "10.1.0.5", "192.168.1.1", "192.168.1.255", "203.0.113.9", "255.255.255.255", "0.0.0.0"} {
		candidates = append(candidates, addr(a))
	}
	prefixes := []netip.Prefix{
		netip.MustParsePrefix("0.0.0.0/0"), netip.MustParsePrefix("10.0.0.0/8"), netip.MustParsePrefix("10.0.0.0/16"),
		netip.MustParsePrefix("10.0.0.0/24"), netip.MustParsePrefix("10.0.0.99/25"), // unmasked: stored as 10.0.0.0/25
		netip.MustParsePrefix("10.0.0.128/25"), netip.MustParsePrefix("10.0.0.77/32"), netip.MustParsePrefix("192.168.1.0/24"),
	}

	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := sim.New(seed)
		nw := New(s)
		seg := nw.NewSegment("lan", DefaultSegmentConfig())
		other := nw.NewSegment("other", DefaultSegmentConfig())

		var (
			hosts  []*Host
			nics   []*NIC
			model  = map[*NIC]*nicModel{}
			routes = map[*Host][]routeModel{}
			groups = map[*NIC]int{}
		)
		attach := func(h *Host, sg *Segment, p, bcast string) {
			prefix := netip.MustParsePrefix(p)
			nic := h.AttachNIC(sg, fmt.Sprintf("eth%d", len(h.nics)), prefix)
			if nic.Broadcast() != addr(bcast) || nic.Prefix() != prefix.Masked() || nic.Primary() != prefix.Addr() {
				t.Fatalf("NIC %v: broadcast %v, prefix %v, primary %v", p, nic.Broadcast(), nic.Prefix(), nic.Primary())
			}
			nics = append(nics, nic)
			model[nic] = &nicModel{addrs: map[netip.Addr]bool{prefix.Addr(): true}, arp: map[netip.Addr]arpModel{}}
			routes[h] = append(routes[h], routeModel{prefix: prefix.Masked(), nic: nic})
		}
		newHost := func(i int) *Host {
			h := nw.NewHost(fmt.Sprintf("h%d", i))
			h.SetARPTTL([]time.Duration{time.Second, time.Minute, defaultARPTTL}[rng.Intn(3)])
			hosts = append(hosts, h)
			attach(h, seg, fmt.Sprintf("10.0.0.%d/24", 11*(i+1)), "10.0.0.255")
			return h
		}
		for i := 0; i < 4; i++ {
			newHost(i)
		}
		attach(hosts[0], other, "192.168.1.130/25", "192.168.1.255") // a second NIC, so routes differ by interface

		pick := func() netip.Addr { return candidates[rng.Intn(len(candidates))] }
		pickV4 := func() netip.Addr {
			for {
				if a := pick(); a.Is4() {
					return a
				}
			}
		}
		check := func(step int, op string) {
			t.Helper()
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("seed %d step %d (%s): %s", seed, step, op, fmt.Sprintf(format, args...))
			}
			now := s.Now()
			for _, nic := range nics {
				m := model[nic]
				fresh := map[netip.Addr]MAC{}
				for ip, e := range m.arp {
					if !now.After(e.expires) {
						fresh[ip] = e.mac
					}
				}
				if got := nic.ARPEntries(); !maps.Equal(got, fresh) {
					fail("%s/%s ARPEntries() = %v, model %v", nic.host.name, nic.name, got, fresh)
				}
				for _, a := range candidates {
					if got := nic.HasAddr(a); got != m.addrs[a] {
						fail("%s/%s HasAddr(%v) = %v, model %v", nic.host.name, nic.name, a, got, m.addrs[a])
					}
					mac, ok := nic.ARPEntry(a)
					if wantMAC, wantOK := fresh[a]; ok != wantOK || mac != wantMAC {
						fail("%s/%s ARPEntry(%v) = %v, %v; model %v, %v", nic.host.name, nic.name, a, mac, ok, wantMAC, wantOK)
					}
				}
				if got := nic.seg.PartitionGroup(nic); got != groups[nic] {
					fail("%s/%s in partition group %d, model %d", nic.host.name, nic.name, got, groups[nic])
				}
			}
			for _, h := range hosts {
				for _, dst := range candidates {
					word, ok := toIP4(dst)
					if !ok {
						continue // nothing to look up: SendUDP refuses it first
					}
					var want *routeModel
					for i, r := range routes[h] {
						if r.prefix.Contains(dst) && (want == nil || r.prefix.Bits() > want.prefix.Bits()) {
							want = &routes[h][i]
						}
					}
					nic, nexthop, ok := h.lookupRoute(word)
					switch {
					case ok != (want != nil):
						fail("%s lookupRoute(%v) found = %v, model %v", h.name, dst, ok, want != nil)
					case !ok:
					case nic != want.nic:
						fail("%s lookupRoute(%v) leaves by %s, model %s", h.name, dst, nic.name, want.nic.name)
					case want.gw.IsValid() && nexthop.addr() != want.gw, !want.gw.IsValid() && nexthop.addr() != dst:
						fail("%s lookupRoute(%v) next hop %v, model gateway %v", h.name, dst, nexthop.addr(), want.gw)
					}
					local := false
					for _, nic := range h.nics {
						local = local || model[nic].addrs[dst]
					}
					if got := h.hasLocalAddr(word); got != local {
						fail("%s hasLocalAddr(%v) = %v, model %v", h.name, dst, got, local)
					}
				}
			}
		}

		check(0, "setup")
		lateAttach := 50 + rng.Intn(100)
		for step := 1; step <= 250; step++ {
			nic := nics[rng.Intn(len(nics))]
			h, m := nic.host, model[nic]
			op := ""
			switch k := rng.Intn(20); {
			case k < 4:
				a := pick()
				op = fmt.Sprintf("AddAddr %v", a)
				err := nic.AddAddr(a)
				switch {
				case !a.Is4():
					if err == nil || errors.Is(err, errAddrInUse) {
						t.Fatalf("seed %d step %d: %s = %v, want a refusal", seed, step, op, err)
					}
				case m.addrs[a]:
					if !errors.Is(err, errAddrInUse) {
						t.Fatalf("seed %d step %d: %s = %v, want errAddrInUse", seed, step, op, err)
					}
				default:
					if err != nil {
						t.Fatalf("seed %d step %d: %s = %v", seed, step, op, err)
					}
					m.addrs[a] = true
				}
			case k < 7:
				a := pick()
				op = fmt.Sprintf("RemoveAddr %v", a)
				err := nic.RemoveAddr(a)
				switch {
				case a == nic.Primary():
					if err == nil || errors.Is(err, errAddrMissing) {
						t.Fatalf("seed %d step %d: %s = %v, want the primary refused", seed, step, op, err)
					}
				case !m.addrs[a]:
					if !errors.Is(err, errAddrMissing) {
						t.Fatalf("seed %d step %d: %s = %v, want errAddrMissing", seed, step, op, err)
					}
				default:
					if err != nil {
						t.Fatalf("seed %d step %d: %s = %v", seed, step, op, err)
					}
					delete(m.addrs, a)
				}
			case k < 10:
				prefix, gw := prefixes[rng.Intn(len(prefixes))], netip.Addr{}
				if rng.Intn(3) > 0 {
					gw = pickV4()
				}
				op = fmt.Sprintf("AddRoute %v via %v", prefix, gw)
				h.AddRoute(prefix, nic, gw)
				routes[h] = append(routes[h], routeModel{prefix: prefix.Masked(), nic: nic, gw: gw})
			case k < 12:
				prefix, gw := prefixes[rng.Intn(len(prefixes))], pick()
				if rs := routes[h]; len(rs) > 0 && rng.Intn(2) == 0 { // often one that exists
					r := rs[rng.Intn(len(rs))]
					prefix, gw = r.prefix, r.gw
				}
				op = fmt.Sprintf("RemoveRoute %v via %v", prefix, gw)
				at := slices.IndexFunc(routes[h], func(r routeModel) bool { return r.prefix == prefix.Masked() && r.gw == gw })
				if got := h.RemoveRoute(prefix, gw); got != (at >= 0) {
					t.Fatalf("seed %d step %d: %s = %v, model %v", seed, step, op, got, at >= 0)
				}
				if at >= 0 {
					routes[h] = slices.Delete(routes[h], at, at+1)
				}
			case k < 13:
				gw := pickV4()
				op = fmt.Sprintf("SetDefaultGateway %v", gw)
				h.SetDefaultGateway(nic, gw)
				routes[h] = append(routes[h], routeModel{prefix: netip.MustParsePrefix("0.0.0.0/0"), nic: nic, gw: gw})
			case k < 14:
				op = "Partition"
				split := make([][]*Host, 2+rng.Intn(2))
				for _, h := range hosts {
					g := rng.Intn(len(split))
					split[g] = append(split[g], h)
					for _, nic := range h.nics {
						if nic.seg == seg {
							groups[nic] = g + 1
						}
					}
				}
				seg.Partition(split...)
			case k < 15:
				op = "Heal"
				seg.Heal()
				for _, nic := range seg.nics {
					groups[nic] = 0
				}
			case k < 17:
				ip, mac := pickV4(), MAC(rng.Intn(5)+1)
				op = fmt.Sprintf("learn %v at %v", ip, mac)
				seedARP(nic, ip, mac)
				m.arp[ip] = arpModel{mac: mac, expires: s.Now().Add(h.arpTTL)}
			case k < 18:
				op = "clear the ARP cache"
				clear(nic.arp)
				clear(m.arp)
			default:
				d := time.Duration(rng.Int63n(int64(2 * h.arpTTL)))
				if rng.Intn(4) == 0 {
					d = h.arpTTL // lands exactly on an expiry instant: still fresh
				}
				op = fmt.Sprintf("advance %v", d)
				s.RunFor(d)
			}
			if step == lateAttach {
				// A NIC attached while the segment is split sits in group 0.
				op += ", then a late host"
				newHost(len(hosts))
			}
			check(step, op)
		}
	}
}

// TestAddressesOutsideTheModel covers the entry points the table test reaches
// only through a NIC: none may panic on, or accept, an address that is not
// plain IPv4.
func TestAddressesOutsideTheModel(t *testing.T) {
	s, _, _, hosts := lan(t, 1, 2)
	a := hosts[0]
	handler := func(_, _ netip.AddrPort, _ []byte) { t.Error("a datagram was delivered") }
	for _, bad := range notIPv4 {
		if bad.IsValid() {
			if _, err := a.BindUDP(bad, 9000, handler); err == nil {
				t.Errorf("BindUDP(%v) succeeded", bad)
			}
			if err := a.SendUDP(netip.AddrPortFrom(bad, 9000), netip.AddrPortFrom(addr("10.0.0.2"), 9000), nil); err == nil {
				t.Errorf("SendUDP from %v succeeded", bad)
			}
		}
		err := a.SendUDP(netip.AddrPort{}, netip.AddrPortFrom(bad, 9000), nil)
		if !errors.Is(err, errNoRoute) {
			t.Errorf("SendUDP to %v = %v, want errNoRoute", bad, err)
		}
		if err := a.SendGratuitousARP(a.nics[0], bad); err == nil {
			t.Errorf("SendGratuitousARP(%v) succeeded", bad)
		}
		mustPanic := func(what string, f func()) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s %v did not panic as AttachNIC does", what, bad)
				}
			}()
			f()
		}
		mustPanic("AddRoute to", func() { a.AddRoute(netip.PrefixFrom(bad, 64), a.nics[0], netip.Addr{}) })
		if bad.IsValid() { // an invalid gateway is how an on-link route is spelled
			mustPanic("AddRoute via", func() { a.AddRoute(netip.MustParsePrefix("10.9.0.0/16"), a.nics[0], bad) })
		}
		if a.RemoveRoute(netip.PrefixFrom(bad, 64), netip.Addr{}) || bad.IsValid() && a.RemoveRoute(a.nics[0].Prefix(), bad) {
			t.Errorf("RemoveRoute matched a route by %v", bad)
		}
	}
	s.Run()
	if _, err := a.BindUDP(netip.Addr{}, 9000, handler); err != nil {
		t.Errorf("the wildcard bind after the refused ones: %v", err)
	}
}

// TestCrashReleasesResolutionsInAddressOrder: the pools must see records and
// buffers come back in the same order on every run of a seed, so Crash walks
// the pending resolutions by address, not in map order.
func TestCrashReleasesResolutionsInAddressOrder(t *testing.T) {
	_, nw, _, hosts := lan(t, 1, 1)
	a := hosts[0]
	for _, last := range []byte{200, 9, 77, 130, 31, 254, 2} {
		dst := netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 0, last}), 9000)
		if err := a.SendUDP(netip.AddrPort{}, dst, []byte{last}); err != nil { // nobody answers the ARP request
			t.Fatal(err)
		}
	}
	pooled := len(nw.freeBufs)
	a.Crash()
	var order []byte
	for _, b := range nw.freeBufs[pooled:] {
		order = append(order, b[:1][0])
	}
	if want := []byte{2, 9, 31, 77, 130, 200, 254}; !slices.Equal(order, want) {
		t.Fatalf("buffers came back in order %v, want %v", order, want)
	}
}

// TestHostTimerArmedForeverStaysPending is sim's saturation test one layer up:
// a host timer adds its jitter draw to the delay before the simulator sees it.
func TestHostTimerArmedForeverStaysPending(t *testing.T) {
	s, _, _, hosts := lan(t, 1, 1)
	hosts[0].SetProcessingJitter(time.Millisecond)
	s.RunFor(time.Second)
	forever := hosts[0].AfterFunc(math.MaxInt64, func() { t.Error("a host timer armed forever fired") })
	s.RunFor(time.Hour)
	if !forever.Stop() {
		t.Fatal("Stop() = false on the forever timer, want it still pending")
	}
}
