package vrrp

import (
	"net/netip"
	"testing"
	"time"

	"wackamole/internal/netsim"
	"wackamole/internal/sim"
)

func pair(t *testing.T, seed int64, prios ...uint8) (*sim.Sim, []*Router, []*netsim.NIC) {
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
		r, err := New(h, nic, Config{VRID: 7, Priority: prio, VIP: vip, Preempt: true})
		if err != nil {
			t.Fatal(err)
		}
		r.Start()
		routers = append(routers, r)
		nics = append(nics, nic)
	}
	return s, routers, nics
}

func TestHighestPriorityWinsElection(t *testing.T) {
	s, routers, nics := pair(t, 1, 100, 200, 150)
	s.RunFor(10 * time.Second)
	if routers[1].State() != StateMaster {
		t.Fatalf("router states = %v %v %v, want b master", routers[0].State(), routers[1].State(), routers[2].State())
	}
	if routers[0].State() != stateBackup || routers[2].State() != stateBackup {
		t.Fatal("non-winners are not backups")
	}
	vip := netip.MustParseAddr("10.0.0.100")
	if !nics[1].HasAddr(vip) || nics[0].HasAddr(vip) || nics[2].HasAddr(vip) {
		t.Fatal("VIP not held exclusively by the master")
	}
}

func TestBackupTakesOverWithinMasterDownInterval(t *testing.T) {
	s, routers, nics := pair(t, 2, 200, 100)
	s.RunFor(10 * time.Second)
	if routers[0].State() != StateMaster {
		t.Fatal("setup: wrong master")
	}
	nics[0].SetUp(false)
	faultAt := s.Elapsed()
	for routers[1].State() != StateMaster && s.Elapsed()-faultAt < 20*time.Second {
		s.RunFor(100 * time.Millisecond)
	}
	took := s.Elapsed() - faultAt
	cfg := Config{Priority: 100}
	if took > cfg.masterDownInterval()+200*time.Millisecond {
		t.Fatalf("takeover took %v, want within master-down %v", took, cfg.masterDownInterval())
	}
	if !nics[1].HasAddr(netip.MustParseAddr("10.0.0.100")) {
		t.Fatal("new master does not hold the VIP")
	}
}

func TestPreemptionOnRecovery(t *testing.T) {
	s, routers, nics := pair(t, 3, 200, 100)
	s.RunFor(10 * time.Second)
	nics[0].SetUp(false)
	s.RunFor(10 * time.Second)
	if routers[1].State() != StateMaster {
		t.Fatal("backup never took over")
	}
	nics[0].SetUp(true)
	s.RunFor(10 * time.Second)
	if routers[0].State() != StateMaster {
		t.Fatalf("high-priority router did not preempt (state %v)", routers[0].State())
	}
	if routers[1].State() != stateBackup {
		t.Fatalf("low-priority router did not step down (state %v)", routers[1].State())
	}
	vip := netip.MustParseAddr("10.0.0.100")
	if !nics[0].HasAddr(vip) || nics[1].HasAddr(vip) {
		t.Fatal("VIP not returned to the preempting master")
	}
}

func TestSkewTimeOrdersByPriority(t *testing.T) {
	hi := Config{Priority: 254}
	lo := Config{Priority: 1}
	if hi.skewTime() >= lo.skewTime() {
		t.Fatalf("skew(hi)=%v, skew(lo)=%v; higher priority must expire sooner", hi.skewTime(), lo.skewTime())
	}
	if hi.masterDownInterval() != 3*time.Second+hi.skewTime() {
		t.Fatalf("masterDownInterval = %v", hi.masterDownInterval())
	}
}

func TestConfigValidation(t *testing.T) {
	s := sim.New(9)
	nw := netsim.New(s)
	lan := nw.NewSegment("lan", netsim.DefaultSegmentConfig())
	h := nw.NewHost("a")
	nic := h.AttachNIC(lan, "eth0", netip.MustParsePrefix("10.0.0.10/24"))
	if _, err := New(h, nic, Config{VRID: 1, Priority: 100}); err == nil {
		t.Fatal("missing VIP accepted")
	}
	if _, err := New(h, nic, Config{VRID: 1, Priority: 0, VIP: netip.MustParseAddr("10.0.0.100")}); err == nil {
		t.Fatal("priority 0 accepted")
	}
	if _, err := New(h, nic, Config{VRID: 1, Priority: 255, VIP: netip.MustParseAddr("10.0.0.100")}); err == nil {
		t.Fatal("priority 255 accepted")
	}
}
