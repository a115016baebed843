package netsim_test

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

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
		if daemons[i], err = gcs.NewDaemon(ep.Env(nil), gcs.TunedConfig()); err != nil {
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
	if _, err := probe.NewServer(hosts[1], 8000); err != nil {
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
	c.Stop()
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
