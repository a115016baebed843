package rip

import (
	"net/netip"
	"testing"
	"time"

	"wackamole/internal/netsim"
	"wackamole/internal/sim"
)

// twoRouterNet builds: clientNet -- U -- midNet -- R -- farNet, with RIP on
// U and R so each learns the other's connected networks.
// twoRouterNet also returns the client and far segments, which only U and
// R respectively reach.
func twoRouterNet(t *testing.T, seed int64, cfg Config) (s *sim.Sim, pu, pr *Process, clientNet, farNet *netsim.Segment) {
	t.Helper()
	s = sim.New(seed)
	nw := netsim.New(s)
	clientNet = nw.NewSegment("client", netsim.DefaultSegmentConfig())
	midNet := nw.NewSegment("mid", netsim.DefaultSegmentConfig())
	farNet = nw.NewSegment("far", netsim.DefaultSegmentConfig())

	u := nw.NewHost("U")
	u.AttachNIC(clientNet, "c", netip.MustParsePrefix("203.0.113.1/24"))
	u.AttachNIC(midNet, "m", netip.MustParsePrefix("198.51.100.1/24"))
	u.EnableForwarding()

	r := nw.NewHost("R")
	r.AttachNIC(midNet, "m", netip.MustParsePrefix("198.51.100.2/24"))
	r.AttachNIC(farNet, "f", netip.MustParsePrefix("10.1.0.1/24"))
	r.EnableForwarding()

	var err error
	if pu, err = New(u, cfg); err != nil {
		t.Fatal(err)
	}
	if pr, err = New(r, cfg); err != nil {
		t.Fatal(err)
	}
	return s, pu, pr, clientNet, farNet
}

// learned reports whether p has learned prefix.
func learned(p *Process, prefix string) bool {
	_, ok := p.learned[netip.MustParsePrefix(prefix)]
	return ok
}

func TestRoutesLearnedWithinOnePeriod(t *testing.T) {
	cfg := Config{AdvertisePeriod: 5 * time.Second}
	s, pu, pr, _, _ := twoRouterNet(t, 1, cfg)
	pu.Start()
	pr.Start()
	s.RunFor(6 * time.Second)
	if !learned(pr, "203.0.113.0/24") {
		t.Fatalf("R never learned the client net; routes=%v", pr.learned)
	}
	if !learned(pu, "10.1.0.0/24") {
		t.Fatalf("U never learned the far net; routes=%v", pu.learned)
	}
}

func TestLateStarterWaitsForNextAdvertisement(t *testing.T) {
	cfg := Config{AdvertisePeriod: 30 * time.Second}
	s, pu, pr, _, _ := twoRouterNet(t, 2, cfg)
	pu.Start()
	s.RunFor(10 * time.Second) // U advertised at t=0; next at t=30
	pr.Start()
	s.RunFor(5 * time.Second) // t=15: nothing heard yet
	if learned(pr, "203.0.113.0/24") {
		t.Fatal("late starter learned a route before any advertisement")
	}
	s.RunFor(20 * time.Second) // t=35: U's t=30 advert received
	if !learned(pr, "203.0.113.0/24") {
		t.Fatal("late starter still has no route after the periodic advertisement")
	}
}

func TestEndToEndForwardingViaLearnedRoutes(t *testing.T) {
	cfg := Config{AdvertisePeriod: 5 * time.Second}
	s, pu, pr, clientNet, farNet := twoRouterNet(t, 3, cfg)
	pu.Start()
	pr.Start()
	s.RunFor(6 * time.Second)

	nw := pu.host.Network()
	client := nw.NewHost("client")
	cn := client.AttachNIC(clientNet, "eth0", netip.MustParsePrefix("203.0.113.50/24"))
	client.SetDefaultGateway(cn, netip.MustParseAddr("203.0.113.1"))
	server := nw.NewHost("server")
	sn := server.AttachNIC(farNet, "eth0", netip.MustParsePrefix("10.1.0.10/24"))
	server.SetDefaultGateway(sn, netip.MustParseAddr("10.1.0.1"))

	var reply string
	if _, err := server.BindUDP(netip.Addr{}, 7000, func(src, dst netip.AddrPort, payload []byte) {
		if err := server.SendUDP(dst, src, []byte("pong")); err != nil {
			t.Errorf("server reply: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.BindUDP(netip.Addr{}, 7001, func(_, _ netip.AddrPort, payload []byte) {
		reply = string(payload)
	}); err != nil {
		t.Fatal(err)
	}
	err := client.SendUDP(
		netip.AddrPortFrom(netip.MustParseAddr("203.0.113.50"), 7001),
		netip.AddrPortFrom(netip.MustParseAddr("10.1.0.10"), 7000),
		[]byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	s.RunFor(time.Second)
	if reply != "pong" {
		t.Fatalf("no end-to-end reply via two RIP routers (reply=%q)", reply)
	}
}

func TestStopUninstallsRoutes(t *testing.T) {
	cfg := Config{AdvertisePeriod: 5 * time.Second}
	s, pu, pr, _, _ := twoRouterNet(t, 4, cfg)
	pu.Start()
	pr.Start()
	s.RunFor(6 * time.Second)
	if len(pr.learned) == 0 {
		t.Fatal("vacuous: no routes learned")
	}
	pr.Stop()
	if len(pr.learned) != 0 {
		t.Fatal("Stop left learned routes behind")
	}
}

func TestRouteExpiry(t *testing.T) {
	cfg := Config{AdvertisePeriod: 2 * time.Second}
	s, pu, pr, _, _ := twoRouterNet(t, 5, cfg)
	pu.Start()
	pr.Start()
	s.RunFor(3 * time.Second)
	if !learned(pr, "203.0.113.0/24") {
		t.Fatal("route not learned")
	}
	pu.Stop()
	s.RunFor(routeTimeout - 5*time.Second)
	if !learned(pr, "203.0.113.0/24") {
		t.Fatal("route expired before its timeout")
	}
	s.RunFor(10 * time.Second)
	if learned(pr, "203.0.113.0/24") {
		t.Fatal("route survived past its timeout after the advertiser stopped")
	}
}
