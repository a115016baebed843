package fake

import (
	"net/netip"
	"testing"
	"time"

	"wackamole/internal/netsim"
	"wackamole/internal/probe"
	"wackamole/internal/sim"
)

const servicePort = 8080

func setup(t *testing.T, seed int64) (*sim.Sim, *netsim.NIC, *netsim.NIC, *Monitor) {
	t.Helper()
	s := sim.New(seed)
	nw := netsim.New(s)
	lan := nw.NewSegment("lan", netsim.DefaultSegmentConfig())
	vip := netip.MustParseAddr("10.0.0.100")

	main := nw.NewHost("main")
	mainNIC := main.AttachNIC(lan, "eth0", netip.MustParsePrefix("10.0.0.10/24"))
	if err := mainNIC.AddAddr(vip); err != nil {
		t.Fatal(err)
	}
	if err := probe.NewServer(main, servicePort); err != nil {
		t.Fatal(err)
	}

	backup := nw.NewHost("backup")
	backupNIC := backup.AttachNIC(lan, "eth0", netip.MustParsePrefix("10.0.0.11/24"))
	mon, err := New(backup, backupNIC, Config{
		Target:    netip.AddrPortFrom(vip, servicePort),
		VIP:       vip,
		LocalPort: 9100,
	})
	if err != nil {
		t.Fatal(err)
	}
	mon.Start()
	return s, mainNIC, backupNIC, mon
}

func TestNoTakeoverWhileServiceHealthy(t *testing.T) {
	s, _, backupNIC, mon := setup(t, 1)
	s.RunFor(30 * time.Second)
	if mon.tookOver {
		t.Fatal("took over a healthy service")
	}
	if backupNIC.HasAddr(netip.MustParseAddr("10.0.0.100")) {
		t.Fatal("backup holds the VIP without failure")
	}
}

func TestTakeoverAfterThresholdMisses(t *testing.T) {
	s, mainNIC, backupNIC, mon := setup(t, 2)
	s.RunFor(5 * time.Second)
	mainNIC.SetUp(false)
	faultAt := s.Elapsed()
	for !mon.tookOver && s.Elapsed()-faultAt < 30*time.Second {
		s.RunFor(100 * time.Millisecond)
	}
	if !mon.tookOver {
		t.Fatal("monitor never took over")
	}
	took := s.Elapsed() - faultAt
	// failThreshold misses at the probe interval, less up to one interval
	// of phase, plus up to two of slack.
	if took < (failThreshold-1)*probeInterval || took > (failThreshold+2)*probeInterval {
		t.Fatalf("takeover after %v, want ≈%v", took, failThreshold*probeInterval)
	}
	if !backupNIC.HasAddr(netip.MustParseAddr("10.0.0.100")) {
		t.Fatal("backup does not hold the VIP after takeover")
	}
}

func TestTakenOverCallback(t *testing.T) {
	s, mainNIC, _, mon := setup(t, 3)
	called := false
	mon.TakenOver = func() { called = true }
	s.RunFor(2 * time.Second)
	mainNIC.SetUp(false)
	s.RunFor(10 * time.Second)
	if !called {
		t.Fatal("TakenOver callback never fired")
	}
}

func TestTransientMissesDoNotTrigger(t *testing.T) {
	s, mainNIC, _, mon := setup(t, 4)
	s.RunFor(3 * time.Second)
	// One missed probe window, then recovery.
	mainNIC.SetUp(false)
	s.RunFor(1200 * time.Millisecond)
	mainNIC.SetUp(true)
	s.RunFor(20 * time.Second)
	if mon.tookOver {
		t.Fatal("single transient miss triggered takeover")
	}
}

func TestConfigValidation(t *testing.T) {
	s := sim.New(5)
	nw := netsim.New(s)
	lan := nw.NewSegment("lan", netsim.DefaultSegmentConfig())
	h := nw.NewHost("b")
	nic := h.AttachNIC(lan, "eth0", netip.MustParsePrefix("10.0.0.11/24"))
	if _, err := New(h, nic, Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}
