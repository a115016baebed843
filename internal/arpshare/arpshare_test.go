package arpshare

import (
	"net/netip"
	"testing"
	"time"

	"wackamole/internal/gcs"
	"wackamole/internal/netsim"
	"wackamole/internal/sim"
)

// rig builds two router-like hosts with gcs daemons and sharers, plus a
// picky peer that ignores broadcast gratuitous ARP.
type rig struct {
	sim     *sim.Sim
	hosts   [2]*netsim.Host
	daemons [2]*gcs.Daemon
	sharers [2]*Sharer
	picky   *netsim.Host
}

func buildRig(t *testing.T, seed int64) *rig {
	t.Helper()
	s := sim.New(seed)
	nw := netsim.New(s)
	lan := nw.NewSegment("lan", netsim.DefaultSegmentConfig())
	r := &rig{sim: s}
	for i := 0; i < 2; i++ {
		h := nw.NewHost([]string{"fr1", "fr2"}[i])
		nic := h.AttachNIC(lan, "eth0", netip.MustParsePrefix(
			netip.AddrFrom4([4]byte{10, 0, 0, byte(2 + i)}).String()+"/24"))
		ep, err := h.OpenEndpoint(nic, 4803)
		if err != nil {
			t.Fatal(err)
		}
		d, err := gcs.NewDaemon(ep.Env(nil), gcs.TunedConfig())
		if err != nil {
			t.Fatal(err)
		}
		d.Start()
		sh, err := New(h, d, Config{Interval: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		sh.Start()
		r.hosts[i] = h
		r.daemons[i] = d
		r.sharers[i] = sh
	}
	r.picky = nw.NewHost("picky")
	r.picky.AttachNIC(lan, "eth0", netip.MustParsePrefix("10.0.0.50/24"))
	r.picky.SetIgnoreBroadcastGratuitousARP(true)
	return r
}

func TestSharersLearnEachOthersCaches(t *testing.T) {
	r := buildRig(t, 1)
	// fr1 resolves picky (so picky lands in fr1's cache), then shares it.
	if err := r.hosts[0].SendUDP(netip.AddrPort{}, netip.AddrPortFrom(netip.MustParseAddr("10.0.0.50"), 9), []byte("x")); err != nil {
		t.Fatal(err)
	}
	r.sim.RunFor(10 * time.Second)
	found := false
	for _, e := range r.sharers[1].Known() {
		if e.IP == netip.MustParseAddr("10.0.0.50") {
			found = true
		}
	}
	if !found {
		t.Fatalf("fr2 never learned picky from fr1's cache share; known=%v", r.sharers[1].Known())
	}
	// And both learn each other's stationary addresses.
	foundPeer := false
	for _, e := range r.sharers[0].Known() {
		if e.IP == netip.MustParseAddr("10.0.0.3") {
			foundPeer = true
		}
	}
	if !foundPeer {
		t.Fatal("fr1 never learned fr2's stationary address")
	}
}

func TestUnicastSpoofReachesBroadcastIgnorer(t *testing.T) {
	r := buildRig(t, 2)
	vip := netip.MustParseAddr("10.0.0.100")
	fr1, fr2 := r.hosts[0], r.hosts[1]

	// picky talks to the VIP while fr1 owns it, caching fr1's MAC.
	if err := fr1.NICs()[0].AddAddr(vip); err != nil {
		t.Fatal(err)
	}
	if err := r.picky.SendUDP(netip.AddrPort{}, netip.AddrPortFrom(vip, 9), []byte("x")); err != nil {
		t.Fatal(err)
	}
	// fr2 resolves picky so the share includes it.
	if err := fr2.SendUDP(netip.AddrPort{}, netip.AddrPortFrom(netip.MustParseAddr("10.0.0.50"), 9), []byte("x")); err != nil {
		t.Fatal(err)
	}
	r.sim.RunFor(10 * time.Second)
	mac, ok := r.picky.NICs()[0].ARPEntry(vip)
	if !ok || mac != fr1.NICs()[0].MAC() {
		t.Fatalf("setup: picky's entry = %v ok=%v", mac, ok)
	}

	// Fail over to fr2. A plain broadcast gratuitous ARP must NOT update
	// picky (it ignores broadcast announcements)...
	fr1.NICs()[0].SetUp(false)
	if err := fr2.NICs()[0].AddAddr(vip); err != nil {
		t.Fatal(err)
	}
	plain := &netsim.ARPAnnouncer{Host: fr2}
	plain.Announce(vip)
	r.sim.RunFor(time.Second)
	if mac, _ := r.picky.NICs()[0].ARPEntry(vip); mac == fr2.NICs()[0].MAC() {
		t.Fatal("broadcast gratuitous ARP updated a host configured to ignore it")
	}

	// ...but the sharing notifier's unicast spoof must.
	r.sharers[1].Notifier(plain).Announce(vip)
	r.sim.RunFor(time.Second)
	mac, ok = r.picky.NICs()[0].ARPEntry(vip)
	if !ok || mac != fr2.NICs()[0].MAC() {
		t.Fatalf("unicast spoof did not update picky (mac=%v ok=%v)", mac, ok)
	}
}

func TestGarbageCollectionExpiresStaleEntries(t *testing.T) {
	r := buildRig(t, 3)
	if err := r.hosts[0].SendUDP(netip.AddrPort{}, netip.AddrPortFrom(netip.MustParseAddr("10.0.0.50"), 9), []byte("x")); err != nil {
		t.Fatal(err)
	}
	r.sim.RunFor(10 * time.Second)
	if len(r.sharers[1].Known()) == 0 {
		t.Fatal("nothing learned")
	}
	// Silence fr1: its contributions must expire from fr2's set once the
	// hold time has passed, and not before. fr1's own stationary address
	// keeps being announced by its own cache entries on fr2's side only via
	// fr1, so it expires too.
	picky := func() bool {
		for _, e := range r.sharers[1].Known() {
			if e.IP == netip.MustParseAddr("10.0.0.50") {
				return true
			}
		}
		return false
	}
	r.hosts[0].Crash()
	r.sim.RunFor(holdTime - 5*time.Second)
	if !picky() {
		t.Fatalf("shared entry expired before the hold time: %v", r.sharers[1].Known())
	}
	r.sim.RunFor(10 * time.Second)
	if picky() {
		t.Fatalf("stale shared entry survived garbage collection: %v", r.sharers[1].Known())
	}
}

func TestShareCodecRoundTrip(t *testing.T) {
	in := []Entry{
		{IP: netip.MustParseAddr("10.0.0.1"), MAC: netsim.MAC(0x0A0000000001)},
		{IP: netip.MustParseAddr("192.168.1.254"), MAC: netsim.MAC(0xFFFFFFFFFFFF)},
	}
	out, err := decodeShare(encodeShare(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) || out[0] != in[0] || out[1] != in[1] {
		t.Fatalf("round trip = %v, want %v", out, in)
	}
	if _, err := decodeShare([]byte{0xFF}); err == nil {
		t.Fatal("truncated share accepted")
	}
}
