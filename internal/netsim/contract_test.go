package netsim_test

import (
	"fmt"
	"net/netip"
	"sort"
	"testing"
	"time"

	"wackamole/internal/env"
	"wackamole/internal/flow"
	"wackamole/internal/gcs"
	"wackamole/internal/netsim"
	"wackamole/internal/probe"
	"wackamole/internal/sim"
)

// poisonedLAN builds n hosts 10.0.0.1..n/24 on one segment of a network that
// overwrites every payload buffer the moment it is recycled. A handler that
// kept its payload past its return — the one thing netsim.UDPHandler and
// env.Handler forbid — would read poison instead of the datagram, so each
// protocol below completing an exchange shows that it does not.
func poisonedLAN(t *testing.T, seed int64, n int) (*sim.Sim, []*netsim.Host) {
	t.Helper()
	s := sim.New(seed)
	nw := netsim.New(s)
	nw.PoisonFreedBuffers()
	seg := nw.NewSegment("lan", netsim.DefaultSegmentConfig())
	hosts := make([]*netsim.Host, n)
	for i := range hosts {
		hosts[i] = nw.NewHost(fmt.Sprintf("h%d", i+1))
		hosts[i].AttachNIC(seg, "eth0", netip.MustParsePrefix(fmt.Sprintf("10.0.0.%d/24", i+1)))
	}
	return s, hosts
}

// scribbler is the send-side counterpart of the poisoned pool: it overwrites
// the sender's buffer the moment SendTo or Broadcast returns, which the
// env.PacketConn contract allows. A network that kept the slice instead of
// copying it would deliver garbage.
type scribbler struct{ env.PacketConn }

func scribble(b []byte) {
	for i := range b {
		b[i] = 0xDB
	}
}

func (c scribbler) SendTo(to env.Addr, payload []byte) error {
	defer scribble(payload)
	return c.PacketConn.SendTo(to, payload)
}

func (c scribbler) Broadcast(payload []byte) error {
	defer scribble(payload)
	return c.PacketConn.Broadcast(payload)
}

// TestSendDoesNotRetainPayload covers every way a datagram leaves an
// endpoint — unicast, loop-back, broadcast and the broadcaster's own copy —
// with the sender reusing its buffer immediately.
func TestSendDoesNotRetainPayload(t *testing.T) {
	s, hosts := poisonedLAN(t, 40, 3)
	got := make([][]string, len(hosts))
	conns := make([]env.PacketConn, len(hosts))
	for i, h := range hosts {
		i := i
		ep, err := h.OpenEndpoint(h.NICs()[0], 4803)
		if err != nil {
			t.Fatal(err)
		}
		ep.SetHandler(func(_ env.Addr, payload []byte) { got[i] = append(got[i], string(payload)) })
		conns[i] = scribbler{ep}
	}
	buf := make([]byte, 0, 16)
	send := func(msg string, send func(payload []byte) error) {
		t.Helper()
		buf = append(buf[:0], msg...)
		if err := send(buf); err != nil {
			t.Fatal(err)
		}
		if string(buf) == msg {
			t.Fatal("the scribbler left the buffer intact; the test proves nothing")
		}
	}
	send("unicast", func(p []byte) error { return conns[0].SendTo(conns[1].LocalAddr(), p) })
	send("loop-back", func(p []byte) error { return conns[0].SendTo(conns[0].LocalAddr(), p) })
	send("broadcast", conns[0].Broadcast)
	s.Run()
	// The unicast waits for ARP, so it lands after the broadcast.
	want := [][]string{{"loop-back", "broadcast"}, {"broadcast", "unicast"}, {"broadcast"}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("delivered %q, want %q", got, want)
	}
}

// TestSharedDatagramOutlivesEveryConsumer covers the datagrams that have more
// than one consumer: a broadcast (three receivers and the sender's own
// socket) and a directed broadcast a router forwards onto the far LAN (two
// receivers and the router's own socket). Every handler must read the bytes
// that were sent, and the buffer — which each handler keeps a reference to
// here, against the contract, purely to watch it — must stay intact until the
// last of them has returned and be poisoned once the queue has drained.
func TestSharedDatagramOutlivesEveryConsumer(t *testing.T) {
	const msg = "shared until the last consumer"
	s := sim.New(45)
	nw := netsim.New(s)
	nw.PoisonFreedBuffers()
	left := nw.NewSegment("left", netsim.DefaultSegmentConfig())
	right := nw.NewSegment("right", netsim.DefaultSegmentConfig())
	router := nw.NewHost("router")
	router.EnableForwarding()
	router.AttachNIC(left, "eth0", netip.MustParsePrefix("10.0.0.254/24"))
	router.AttachNIC(right, "eth1", netip.MustParsePrefix("10.0.1.254/24"))
	hosts := []*netsim.Host{router}
	for _, a := range []string{"10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.1.1", "10.0.1.2"} {
		h := nw.NewHost(a)
		ip := netip.MustParseAddr(a)
		seg, gw := left, "10.0.0.254"
		if ip.As4()[2] == 1 {
			seg, gw = right, "10.0.1.254"
		}
		h.SetDefaultGateway(h.AttachNIC(seg, "eth0", netip.PrefixFrom(ip, 24)), netip.MustParseAddr(gw))
		hosts = append(hosts, h)
	}
	var heard []string
	var kept [][]byte
	for _, h := range hosts {
		h := h
		if _, err := h.BindUDP(netip.Addr{}, 4803, func(_, _ netip.AddrPort, payload []byte) {
			kept = append(kept, payload)
			for _, k := range kept {
				if string(k) != msg {
					t.Errorf("%s: read %q while consumers remain, want %q", h.Name(), k, msg)
				}
			}
			heard = append(heard, h.Name())
		}); err != nil {
			t.Fatal(err)
		}
	}
	sender := hosts[1] // 10.0.0.1
	for _, tc := range []struct{ dst, want string }{
		{"10.0.0.255", "[10.0.0.1 10.0.0.2 10.0.0.3 router]"},
		{"10.0.1.255", "[10.0.1.1 10.0.1.2 router]"},
	} {
		heard, kept = nil, nil
		if err := sender.SendUDP(netip.AddrPort{}, netip.AddrPortFrom(netip.MustParseAddr(tc.dst), 4803), []byte(msg)); err != nil {
			t.Fatal(err)
		}
		s.Run()
		sort.Strings(heard)
		if fmt.Sprint(heard) != tc.want {
			t.Errorf("to %s: heard by %v, want %s", tc.dst, heard, tc.want)
		}
		for _, k := range kept {
			if string(k) == msg {
				t.Errorf("to %s: the buffer was not recycled after its last consumer", tc.dst)
			}
		}
		if n := nw.PacketsOutstanding(); n != 0 {
			t.Errorf("to %s: %d packet records not back in the pool", tc.dst, n)
		}
	}
}

// TestEndpointPingPongDoesNotAllocate pins the adapter between the simulated
// host and env.PacketConn: addresses pass through as values, so a settled
// unicast exchange allocates nothing in either direction.
func TestEndpointPingPongDoesNotAllocate(t *testing.T) {
	s, hosts := poisonedLAN(t, 44, 2)
	var eps [2]*netsim.Endpoint
	for i, h := range hosts {
		ep, err := h.OpenEndpoint(h.NICs()[0], 4803)
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
	}
	pongs := 0
	eps[0].SetHandler(func(env.Addr, []byte) { pongs++ })
	eps[1].SetHandler(func(from env.Addr, p []byte) {
		if err := eps[1].SendTo(from, p); err != nil {
			t.Error(err)
		}
	})
	to, payload := eps[1].LocalAddr(), make([]byte, 64)
	pingPong := func() {
		if err := eps[0].SendTo(to, payload); err != nil {
			t.Error(err)
		}
		s.Run()
	}
	pingPong() // resolves ARP both ways and fills the pools
	if avg := testing.AllocsPerRun(200, pingPong); avg != 0 || pongs != 202 {
		t.Fatalf("ping-pong allocates %.1f (%d pongs of 202), want 0", avg, pongs)
	}
}

func TestNoRetainGCSRingDeliversAgreed(t *testing.T) {
	s, hosts := poisonedLAN(t, 41, 3)
	got := make([][]string, len(hosts))
	sessions := make([]*gcs.Session, len(hosts))
	daemons := make([]*gcs.Daemon, len(hosts))
	for i, h := range hosts {
		i := i
		ep, err := h.OpenEndpoint(h.NICs()[0], 4803)
		if err != nil {
			t.Fatal(err)
		}
		// The scribbler poisons the daemon's scratch encoder between sends.
		e := ep.Env(nil)
		e.Conn = scribbler{e.Conn}
		if daemons[i], err = gcs.NewDaemon(e, gcs.TunedConfig()); err != nil {
			t.Fatal(err)
		}
		daemons[i].Start()
		if sessions[i], err = daemons[i].Connect("w"); err != nil {
			t.Fatal(err)
		}
		sessions[i].SetMessageHandler(func(_ gcs.GroupMember, _ string, payload []byte) {
			got[i] = append(got[i], string(payload))
		})
		if err := sessions[i].Join("wack"); err != nil {
			t.Fatal(err)
		}
	}
	s.RunFor(5 * time.Second)
	for i, d := range daemons {
		if _, members, ok := d.Ring(); !ok || len(members) != 3 {
			t.Fatalf("daemon %d: ring of %d members (installed %v), want 3", i, len(members), ok)
		}
	}
	const msg = "agreed over recycled buffers"
	if err := sessions[0].Multicast("wack", []byte(msg)); err != nil {
		t.Fatal(err)
	}
	s.RunFor(3 * time.Second)
	for i := range got {
		if len(got[i]) != 1 || got[i][0] != msg {
			t.Fatalf("member %d delivered %q, want exactly %q", i, got[i], msg)
		}
	}
}

func TestNoRetainProbeExchange(t *testing.T) {
	s, hosts := poisonedLAN(t, 42, 2)
	if err := probe.NewServer(hosts[1], 8000); err != nil {
		t.Fatal(err)
	}
	c, err := probe.NewClient(hosts[0], probe.ClientConfig{
		Target:    netip.AddrPortFrom(netip.MustParseAddr("10.0.0.2"), 8000),
		LocalPort: 8001,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	s.RunFor(time.Second)
	if c.Responses() < 50 {
		t.Fatalf("responses = %d in 1s at the default 10ms interval", c.Responses())
	}
	if by := c.ByServer(); len(by) != 1 || by["h2"] != c.Responses() {
		t.Fatalf("responses by server = %v, want all %d from h2", by, c.Responses())
	}
}

func TestNoRetainFlowRoundTrip(t *testing.T) {
	s, hosts := poisonedLAN(t, 43, 2)
	if _, err := flow.NewServer(hosts[1], 8090, flow.ServerConfig{
		Handler: func(req []byte) []byte { return append([]byte("re:"), req...) },
	}); err != nil {
		t.Fatal(err)
	}
	c, err := flow.NewClient(hosts[0], 9100, flow.ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var conn *flow.Conn
	c.Dial(netip.AddrPortFrom(netip.MustParseAddr("10.0.0.2"), 8090), func(cn *flow.Conn, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		conn = cn
	})
	s.RunFor(time.Second)
	if conn == nil {
		t.Fatal("dial did not complete")
	}
	var resps []string
	for i := 0; i < 3; i++ {
		conn.Request([]byte(fmt.Sprintf("GET /%d", i)), func(b []byte, _ time.Duration, err error) {
			if err != nil {
				t.Fatalf("request: %v", err)
			}
			resps = append(resps, string(b))
		})
		s.RunFor(100 * time.Millisecond)
	}
	if want := []string{"re:GET /0", "re:GET /1", "re:GET /2"}; fmt.Sprint(resps) != fmt.Sprint(want) {
		t.Fatalf("responses = %q, want %q", resps, want)
	}
}
