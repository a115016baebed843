package hsrp

import (
	"net/netip"
	"testing"
	"time"

	"wackamole/internal/netsim"
	"wackamole/internal/sim"
)

func trio(t *testing.T, seed int64, prios ...uint8) (*sim.Sim, []*Router, []*netsim.NIC) {
	t.Helper()
	s := sim.New(seed)
	nw := netsim.New(s)
	lan := nw.NewSegment("lan", netsim.DefaultSegmentConfig())
	vip := netip.MustParseAddr("10.0.0.100")
	var routers []*Router
	var nics []*netsim.NIC
	for i, prio := range prios {
		h := nw.NewHost(string(rune('a' + i)))
		nic := h.AttachNIC(lan, "eth0", netip.MustParsePrefix(netip.AddrFrom4([4]byte{10, 0, 0, byte(10 + i)}).String()+"/24"))
		r, err := New(h, nic, Config{Group: 3, Priority: prio, VIP: vip})
		if err != nil {
			t.Fatal(err)
		}
		r.Start()
		routers = append(routers, r)
		nics = append(nics, nic)
	}
	return s, routers, nics
}

func TestInitialElectionPicksHighestPriority(t *testing.T) {
	s, routers, nics := trio(t, 1, 100, 200)
	s.RunFor(25 * time.Second)
	if routers[1].Role() != RoleActive {
		t.Fatalf("roles = %v %v, want b active", routers[0].Role(), routers[1].Role())
	}
	if routers[0].Role() == RoleActive {
		t.Fatal("two active routers")
	}
	if !nics[1].HasAddr(netip.MustParseAddr("10.0.0.100")) {
		t.Fatal("active router does not hold the VIP")
	}
}

func TestStandbyTakesOverWithinHoldTime(t *testing.T) {
	s, routers, nics := trio(t, 2, 200, 100)
	s.RunFor(25 * time.Second)
	if routers[0].Role() != RoleActive {
		t.Fatalf("setup: main role = %v", routers[0].Role())
	}
	nics[0].SetUp(false)
	faultAt := s.Elapsed()
	for routers[1].Role() != RoleActive && s.Elapsed()-faultAt < 30*time.Second {
		s.RunFor(100 * time.Millisecond)
	}
	took := s.Elapsed() - faultAt
	if routers[1].Role() != RoleActive {
		t.Fatal("standby never took over")
	}
	// The standby waits out the hold timeout from the last hello it heard.
	if took < holdTime-helloInterval || took > holdTime+time.Second {
		t.Fatalf("takeover took %v, want within a hello interval of %v", took, holdTime)
	}
	if !nics[1].HasAddr(netip.MustParseAddr("10.0.0.100")) {
		t.Fatal("new active does not hold the VIP")
	}
}

func TestDualActiveResolvesByPriority(t *testing.T) {
	s, routers, nics := trio(t, 3, 200, 100)
	s.RunFor(25 * time.Second)
	nics[0].SetUp(false)
	s.RunFor(15 * time.Second)
	if routers[1].Role() != RoleActive {
		t.Fatal("standby never took over")
	}
	// The old active comes back: both believe they are active until the
	// next hello exchange; the lower priority must step down.
	nics[0].SetUp(true)
	s.RunFor(10 * time.Second)
	actives := 0
	for _, r := range routers {
		if r.Role() == RoleActive {
			actives++
		}
	}
	if actives != 1 {
		t.Fatalf("%d active routers after heal", actives)
	}
	if routers[0].Role() != RoleActive {
		t.Fatalf("higher-priority router lost the dual-active resolution (role %v)", routers[0].Role())
	}
	vip := netip.MustParseAddr("10.0.0.100")
	holders := 0
	for _, nic := range nics {
		if nic.HasAddr(vip) {
			holders++
		}
	}
	if holders != 1 {
		t.Fatalf("VIP held by %d interfaces after resolution", holders)
	}
}

func TestMissingVIPRejected(t *testing.T) {
	s := sim.New(9)
	nw := netsim.New(s)
	lan := nw.NewSegment("lan", netsim.DefaultSegmentConfig())
	h := nw.NewHost("a")
	nic := h.AttachNIC(lan, "eth0", netip.MustParsePrefix("10.0.0.10/24"))
	if _, err := New(h, nic, Config{Group: 1, Priority: 10}); err == nil {
		t.Fatal("missing VIP accepted")
	}
}
