package gcs

import (
	"fmt"
	"testing"
	"time"

	"wackamole/internal/wire"
)

// The failure-free path allocates nothing: a daemon pays for membership when
// membership changes. These pins hold that without the benchmark module.

// TestIdleTokenPassDoesNotAllocate runs a settled 12-daemon ring one
// tokenInterval — one token pass: receive, decode, re-arm the forward timer,
// encode, send — at a time. The heartbeat broadcasts in the window (twelve
// every 400 passes, a few objects each on the simulated LAN's shared-datagram
// path) vanish in AllocsPerRun's integer average; one object per pass would
// not.
func TestIdleTokenPassDoesNotAllocate(t *testing.T) {
	s, daemons, _ := wbCluster(t, 12, 12, TunedConfig())
	s.RunFor(5 * time.Second)
	for _, d := range daemons {
		if d.state != stOperational || len(d.ring.members) != 12 {
			t.Fatalf("%s: state %v with %d members, want a settled ring of 12", d.id, d.state, len(d.ring.members))
		}
	}
	before := daemons[0].Stats().TokensForwarded
	if avg := testing.AllocsPerRun(2000, func() { s.RunFor(tokenInterval) }); avg != 0 {
		t.Fatalf("an idle token pass allocates %.0f, want 0", avg)
	}
	if passes := daemons[0].Stats().TokensForwarded - before; passes < 100 {
		t.Fatalf("daemon 0 forwarded %d tokens in 2000 intervals on a ring of 12; the ring is not rotating", passes)
	}
}

// TestHeartbeatReceiveDoesNotAllocate hands a daemon a ring member's
// heartbeat: two interned IDs, a value-typed source address and a re-armed
// fault timer.
func TestHeartbeatReceiveDoesNotAllocate(t *testing.T) {
	s, daemons, _ := wbCluster(t, 3, 3, TunedConfig())
	s.RunFor(5 * time.Second)
	d, peer := daemons[0], daemons[1].id
	hb := aliveMsg{Ring: d.ring.id, Sender: peer}.encode(new(wire.Writer))
	if avg := testing.AllocsPerRun(1000, func() { d.onPacket(addrOf(peer), hb) }); avg != 0 {
		t.Fatalf("a heartbeat receive allocates %.0f, want 0", avg)
	}
	if d.state != stOperational {
		t.Fatalf("state %v after heartbeats from a ring member", d.state)
	}
}

// TestInternTableIsBounded floods a daemon with datagrams naming 20 000
// distinct daemons. The table never outgrows its cap, the ring is unharmed,
// and ring members resolve — and intern again — as before.
func TestInternTableIsBounded(t *testing.T) {
	s, daemons, _ := wbCluster(t, 5, 3, TunedConfig())
	s.RunFor(5 * time.Second)
	d, peer := daemons[0], daemons[1].id
	var w wire.Writer
	for i := 0; i < 10000; i++ {
		stranger := DaemonID(fmt.Sprintf("192.168.%d.%d:4803", i/250, i%250))
		ring := RingID{Coord: DaemonID(fmt.Sprintf("172.16.%d.%d:4803", i/250, i%250)), Epoch: 1}
		d.onPacket(addrOf(stranger), leaveMsg{Ring: ring, Sender: stranger}.encode(&w))
		if len(d.ids) > maxInterned {
			t.Fatalf("ID table holds %d entries after %d strangers, cap is %d", len(d.ids), i+1, maxInterned)
		}
	}
	if d.state != stOperational || len(d.ring.members) != 3 {
		t.Fatalf("state %v with %d members after the flood", d.state, len(d.ring.members))
	}
	hb := aliveMsg{Ring: d.ring.id, Sender: peer}.encode(&w)
	m, err := d.ids.decodeAlive(readBody(t, hb))
	if err != nil || m.Sender != peer || !d.ring.contains(m.Sender) || m.Ring != d.ring.id {
		t.Fatalf("heartbeat decodes to %+v (%v) after the flood, want sender %s on ring %s", m, err, peer, d.ring.id)
	}
	if avg := testing.AllocsPerRun(100, func() { d.onPacket(addrOf(peer), hb) }); avg != 0 {
		t.Fatalf("a heartbeat receive allocates %.0f after the flood, want 0", avg)
	}
}

// readBody returns a reader positioned after payload's header.
func readBody(t *testing.T, payload []byte) *wire.Reader {
	t.Helper()
	r := wire.NewReader(payload)
	if _, err := readHeader(r); err != nil {
		t.Fatal(err)
	}
	return r
}
