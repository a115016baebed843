package probe

import (
	"net/netip"
	"testing"
	"time"

	"wackamole/internal/netsim"
	"wackamole/internal/sim"
)

func setup(t *testing.T) (*sim.Sim, *netsim.Network, *netsim.Host, *netsim.Host) {
	t.Helper()
	s := sim.New(1)
	nw := netsim.New(s)
	lan := nw.NewSegment("lan", netsim.DefaultSegmentConfig())
	server := nw.NewHost("alpha")
	server.AttachNIC(lan, "eth0", netip.MustParsePrefix("10.0.0.10/24"))
	client := nw.NewHost("client")
	client.AttachNIC(lan, "eth0", netip.MustParsePrefix("10.0.0.50/24"))
	return s, nw, server, client
}

func TestServerEchoesHostname(t *testing.T) {
	s, _, server, client := setup(t)
	if err := NewServer(server, 8080); err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(client, ClientConfig{
		Target:    netip.AddrPortFrom(netip.MustParseAddr("10.0.0.10"), 8080),
		LocalPort: 9001,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	s.RunFor(time.Second)
	if c.Responses() < 90 {
		t.Fatalf("got %d responses in 1s at 10ms interval", c.Responses())
	}
	if c.ByServer()["alpha"] != c.Responses() {
		t.Fatalf("ByServer = %v", c.ByServer())
	}
	if c.lastFrom != "alpha" {
		t.Fatalf("LastFrom = %q", c.lastFrom)
	}
	if len(c.Gaps()) != 0 {
		t.Fatalf("unexpected gaps on a healthy path: %v", c.Gaps())
	}
}

func TestClientRecordsGapAcrossOutage(t *testing.T) {
	s, _, server, client := setup(t)
	if err := NewServer(server, 8080); err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(client, ClientConfig{
		Target:    netip.AddrPortFrom(netip.MustParseAddr("10.0.0.10"), 8080),
		LocalPort: 9001,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	s.RunFor(time.Second)
	server.NICs()[0].SetUp(false)
	s.RunFor(2 * time.Second)
	server.NICs()[0].SetUp(true)
	s.RunFor(time.Second)
	gaps := c.Gaps()
	if len(gaps) != 1 {
		t.Fatalf("gaps = %v, want exactly one", gaps)
	}
	d := gaps[0].Duration()
	if d < 1900*time.Millisecond || d > 2300*time.Millisecond {
		t.Fatalf("gap duration = %v, want ≈2s", d)
	}
	if gaps[0].From != "alpha" || gaps[0].To != "alpha" {
		t.Fatalf("gap endpoints = %q -> %q", gaps[0].From, gaps[0].To)
	}
	if c.MaxGap() < d {
		t.Fatal("MaxGap smaller than the recorded gap")
	}
}

func TestResetStatsKeepsGapContinuity(t *testing.T) {
	s, _, server, client := setup(t)
	if err := NewServer(server, 8080); err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(client, ClientConfig{
		Target:    netip.AddrPortFrom(netip.MustParseAddr("10.0.0.10"), 8080),
		LocalPort: 9001,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	s.RunFor(time.Second)
	c.ResetStats()
	if c.Responses() != 0 || len(c.Gaps()) != 0 || c.MaxGap() != 0 {
		t.Fatal("ResetStats left statistics behind")
	}
	// An outage that begins immediately after the reset must still be
	// measured against the pre-reset last response.
	server.NICs()[0].SetUp(false)
	s.RunFor(time.Second)
	server.NICs()[0].SetUp(true)
	s.RunFor(500 * time.Millisecond)
	if len(c.Gaps()) != 1 {
		t.Fatalf("gap across a reset not recorded: %v", c.Gaps())
	}
}

// TestGapThresholdSeparatesBlipsFromOutages: a lost probe shows only in
// MaxGap, while one longer than gapThreshold is
// recorded as a Gap.
func TestGapThresholdSeparatesBlipsFromOutages(t *testing.T) {
	s, _, server, client := setup(t)
	if err := NewServer(server, 8080); err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(client, ClientConfig{
		Target:    netip.AddrPortFrom(netip.MustParseAddr("10.0.0.10"), 8080),
		LocalPort: 9001,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	s.RunFor(time.Second)
	server.NICs()[0].SetUp(false)
	s.RunFor(interval)
	server.NICs()[0].SetUp(true)
	s.RunFor(time.Second)
	if len(c.Gaps()) != 0 {
		t.Fatalf("a %v blip recorded as a gap: %v", interval, c.Gaps())
	}
	if c.MaxGap() < 2*interval {
		t.Fatalf("MaxGap = %v, want ≥ two probe periods across the blip", c.MaxGap())
	}
	server.NICs()[0].SetUp(false)
	s.RunFor(2 * gapThreshold)
	server.NICs()[0].SetUp(true)
	s.RunFor(time.Second)
	if len(c.Gaps()) != 1 {
		t.Fatalf("gaps = %v after a %v outage, want one", c.Gaps(), 2*gapThreshold)
	}
}

func TestPortCollisionSurfaces(t *testing.T) {
	_, _, server, _ := setup(t)
	if err := NewServer(server, 8080); err != nil {
		t.Fatal(err)
	}
	if err := NewServer(server, 8080); err == nil {
		t.Fatal("double server bind succeeded")
	}
}

func TestServerRepliesFromRequestedAddress(t *testing.T) {
	// The server must answer from the virtual address the request targeted,
	// not its stationary address — clients track the service, not the host.
	s, _, server, client := setup(t)
	vip := netip.MustParseAddr("10.0.0.100")
	if err := server.NICs()[0].AddAddr(vip); err != nil {
		t.Fatal(err)
	}
	if err := NewServer(server, 8080); err != nil {
		t.Fatal(err)
	}
	var gotSrc netip.Addr
	if _, err := client.BindUDP(netip.Addr{}, 9002, func(src, _ netip.AddrPort, _ []byte) {
		gotSrc = src.Addr()
	}); err != nil {
		t.Fatal(err)
	}
	err := client.SendUDP(
		netip.AddrPortFrom(netip.MustParseAddr("10.0.0.50"), 9002),
		netip.AddrPortFrom(vip, 8080), []byte("q"))
	if err != nil {
		t.Fatal(err)
	}
	s.RunFor(time.Second)
	if gotSrc != vip {
		t.Fatalf("reply source = %v, want the virtual address %v", gotSrc, vip)
	}
}

// TestProbingResumesAfterClientOutage breaks the client's own interface:
// probes the host refuses to transmit go unanswered, and probing resumes
// once the interface comes back.
func TestProbingResumesAfterClientOutage(t *testing.T) {
	s, _, server, client := setup(t)
	if err := NewServer(server, 8080); err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(client, ClientConfig{
		Target:    netip.AddrPortFrom(netip.MustParseAddr("10.0.0.10"), 8080),
		LocalPort: 9001,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	s.RunFor(500 * time.Millisecond)
	client.NICs()[0].SetUp(false)
	before := c.Responses()
	s.RunFor(500 * time.Millisecond)
	if c.Responses() > before+1 {
		t.Fatalf("%d responses while the client interface was down", c.Responses()-before)
	}
	client.NICs()[0].SetUp(true)
	before = c.Responses()
	s.RunFor(500 * time.Millisecond)
	if c.Responses() <= before {
		t.Fatal("probing did not resume after the client interface came back")
	}
	if len(c.Gaps()) != 1 {
		t.Fatalf("gaps = %v, want the client-side outage", c.Gaps())
	}
}

// TestFirstProbeLostGapCorrect starts probing before any server answers: the
// leading lost probes must not fabricate a gap (service was never observed
// up), and a later real outage must still be measured exactly.
func TestFirstProbeLostGapCorrect(t *testing.T) {
	s, _, server, client := setup(t)
	c, err := NewClient(client, ClientConfig{
		Target:    netip.AddrPortFrom(netip.MustParseAddr("10.0.0.10"), 8080),
		LocalPort: 9001,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	// The first ~10 probes reach a host with no server bound and vanish.
	s.RunFor(95 * time.Millisecond)
	if err := NewServer(server, 8080); err != nil {
		t.Fatal(err)
	}
	s.RunFor(time.Second)
	if len(c.Gaps()) != 0 {
		t.Fatalf("lost leading probes fabricated a gap: %v", c.Gaps())
	}
	if c.MaxGap() > 3*interval {
		t.Fatalf("MaxGap = %v includes the pre-service period", c.MaxGap())
	}
	// A real outage afterwards measures only itself.
	server.NICs()[0].SetUp(false)
	s.RunFor(300 * time.Millisecond)
	server.NICs()[0].SetUp(true)
	s.RunFor(500 * time.Millisecond)
	gaps := c.Gaps()
	if len(gaps) != 1 {
		t.Fatalf("gaps = %v, want exactly one", gaps)
	}
	if d := gaps[0].Duration(); d < 290*time.Millisecond || d > 400*time.Millisecond {
		t.Fatalf("gap = %v, want ≈300ms (not inflated by the lost first probes)", d)
	}
}

// TestProbeLoopDoesNotAllocate pins the measurement workload itself: a tick
// re-arms the client's own timer, request and response ride pooled datagrams,
// and the responder's name is built only when it changes — so neither an
// answered probe nor one sent into a dead interface allocates.
func TestProbeLoopDoesNotAllocate(t *testing.T) {
	s, _, server, client := setup(t)
	if err := NewServer(server, 8080); err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(client, ClientConfig{
		Target:    netip.AddrPortFrom(netip.MustParseAddr("10.0.0.10"), 8080),
		LocalPort: 9001,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	s.RunFor(100 * time.Millisecond) // resolves ARP both ways and fills the pools
	tick := func() { s.RunFor(interval) }
	before := c.Responses()
	if avg := testing.AllocsPerRun(200, tick); avg != 0 || c.Responses() != before+201 {
		t.Errorf("an answered probe allocates %.2f (%d responses of 201), want 0", avg, c.Responses()-before)
	}
	server.NICs()[0].SetUp(false)
	before = c.Responses()
	if avg := testing.AllocsPerRun(200, tick); avg != 0 || c.Responses() != before {
		t.Errorf("a probe into a dead NIC allocates %.2f (%d responses), want 0", avg, c.Responses()-before)
	}
}
