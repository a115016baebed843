package load

import (
	"encoding/binary"
	"net/netip"
	"testing"
	"time"
)

// deadEnd is a host on the rig's LAN that never accepts a connection: it
// answers every segment with an RST, or, when silent, with nothing. It
// records when each dial's first segment reached it.
type deadEnd struct {
	target netip.AddrPort
	dials  []time.Time // first arrival of each connection id
	seen   map[uint32]bool
}

func newDeadEnd(t *testing.T, r *rig, silent bool) *deadEnd {
	t.Helper()
	host := r.client.Network().NewHost("dead-end")
	host.AttachNIC(r.seg, "eth0", netip.MustParsePrefix("10.0.0.3/24"))
	d := &deadEnd{target: netip.AddrPortFrom(netip.MustParseAddr("10.0.0.3"), 8090), seen: map[uint32]bool{}}
	if _, err := host.BindUDP(netip.Addr{}, 8090, func(src, dst netip.AddrPort, payload []byte) {
		if len(payload) < 13 { // not a flow segment
			return
		}
		id := binary.BigEndian.Uint32(payload[1:5])
		if !d.seen[id] {
			d.seen[id] = true
			d.dials = append(d.dials, r.s.Now())
		}
		if silent {
			return
		}
		// The flow header: flags (RST = 1<<2), then the connection id,
		// seq and ack, big-endian.
		rst := make([]byte, 13)
		rst[0] = 1 << 2
		copy(rst[1:5], payload[1:5])
		if err := host.SendUDP(dst, src, rst); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestFailedDialRecordsQueuedRequests: a dial that fails — refused by an
// RST, or unanswered until the flow layer's retry budget runs out — fails
// every request queued behind it, each recorded under the class of the
// failure, and a closed-loop client dials again redialBackoff after each
// failure.
func TestFailedDialRecordsQueuedRequests(t *testing.T) {
	for _, tc := range []struct {
		name   string
		silent bool
		class  Class
		settle time.Duration // long enough for one dial to fail
	}{
		{name: "reset", class: ClassReset, settle: 10 * time.Millisecond},
		{name: "timeout", silent: true, class: ClassTimeout, settle: 3 * time.Second},
	} {
		t.Run(tc.name+"/open", func(t *testing.T) {
			r := newRig(t, 7)
			d := newDeadEnd(t, r, tc.silent)
			// So low a rate that no arrival of the engine's own comes due
			// while the test runs: the test issues the arrivals itself.
			e, err := New(r.client, Config{Clients: 1, Mode: Open, RPS: 1e-6, Target: d.target})
			if err != nil {
				t.Fatal(err)
			}
			e.Start()
			const queued = 5
			for i := 0; i < queued; i++ {
				e.arrival() // the first dials, the rest queue behind it
			}
			r.s.RunFor(tc.settle)
			st := e.Stats()
			if len(d.dials) != 1 || st.DialsFailed != 1 || st.DialsOK != 0 {
				t.Fatalf("%d dials reached the target, DialsFailed %d, DialsOK %d; want one failed dial",
					len(d.dials), st.DialsFailed, st.DialsOK)
			}
			if st.Requests[tc.class] != queued || completed(st) != queued {
				t.Fatalf("requests by class %v, want all %d as %v", st.Requests, queued, tc.class)
			}
			e.Stop()
		})
		t.Run(tc.name+"/closed", func(t *testing.T) {
			r := newRig(t, 8)
			d := newDeadEnd(t, r, tc.silent)
			e, err := New(r.client, Config{Clients: 1, Mode: Closed, ThinkTime: 50 * time.Millisecond, Target: d.target})
			if err != nil {
				t.Fatal(err)
			}
			e.Start()
			// Step the simulation to see each failure land and the next
			// dial leave.
			const step = time.Millisecond
			var failures []time.Time
			for failed, end := uint64(0), r.s.Now().Add(30*time.Second); len(failures) < 3; {
				if r.s.Now().After(end) {
					t.Fatalf("%d dial failures in 30s, want 3", len(failures))
				}
				r.s.RunFor(step)
				if n := e.Stats().DialsFailed; n != failed {
					failed = n
					failures = append(failures, r.s.Now())
				}
			}
			e.Stop()
			if len(d.dials) < len(failures) {
				t.Fatalf("%d dials reached the target for %d failures", len(d.dials), len(failures))
			}
			for k := 0; k+1 < len(failures); k++ {
				// failures[k] is observed up to one step late, and the
				// next SYN crosses the LAN in at most a millisecond.
				gap := d.dials[k+1].Sub(failures[k])
				if gap < redialBackoff-step || gap > redialBackoff+step {
					t.Fatalf("dial %d left %v after failure %d, want redialBackoff %v", k+1, gap, k, redialBackoff)
				}
			}
			if completed(e.Stats()) != 0 {
				t.Fatalf("a closed-loop client queues nothing behind a dial, yet recorded %v", e.Stats().Requests)
			}
		})
	}
}
