package netsim

import (
	"net/netip"
	"sync"
	"testing"
	"time"

	"wackamole/internal/env"
	"wackamole/internal/sim"
)

func TestWheelFiresInOrderWithCoalescing(t *testing.T) {
	s, _, _, hosts := lan(t, 1, 1)
	h := hosts[0]
	w := NewTimerWheel(h, 10*time.Millisecond, 64)

	var fired []int
	var at []time.Duration
	for i, d := range []time.Duration{
		25 * time.Millisecond, // rounds up to 30ms
		5 * time.Millisecond,  // rounds up to 10ms
		30 * time.Millisecond, // exact boundary
	} {
		i := i
		w.Schedule(d, func() {
			fired = append(fired, i)
			at = append(at, s.Elapsed())
		})
	}
	s.RunFor(time.Second)

	if len(fired) != 3 {
		t.Fatalf("fired %d timers, want 3", len(fired))
	}
	// 5ms fires first; the two 30ms-boundary timers fire at the same tick in
	// arming order.
	if fired[0] != 1 || fired[1] != 0 || fired[2] != 2 {
		t.Fatalf("fire order = %v, want [1 0 2]", fired)
	}
	if at[0] != 10*time.Millisecond {
		t.Errorf("5ms timer fired at %v, want coalesced to 10ms", at[0])
	}
	if at[1] != 30*time.Millisecond || at[2] != 30*time.Millisecond {
		t.Errorf("30ms timers fired at %v and %v, want 30ms", at[1], at[2])
	}
	if w.Active() != 0 {
		t.Errorf("Active() = %d after drain, want 0", w.Active())
	}
}

func TestWheelStopPreventsFire(t *testing.T) {
	s, _, _, hosts := lan(t, 1, 1)
	w := NewTimerWheel(hosts[0], 10*time.Millisecond, 64)

	fired := false
	tm := w.Schedule(50*time.Millisecond, func() { fired = true })
	s.RunFor(20 * time.Millisecond)
	tm.Stop()
	s.RunFor(time.Second)
	if fired {
		t.Fatal("stopped timer fired")
	}
	if w.Active() != 0 {
		t.Errorf("Active() = %d, want 0 after stopped entry swept", w.Active())
	}
}

func TestWheelMultipleRevolutions(t *testing.T) {
	s, _, _, hosts := lan(t, 1, 1)
	// 4 slots × 10ms tick = one revolution per 40ms; a 100ms timeout needs
	// to survive two sweeps of its slot before firing.
	w := NewTimerWheel(hosts[0], 10*time.Millisecond, 4)

	var firedAt time.Duration
	w.Schedule(100*time.Millisecond, func() { firedAt = s.Elapsed() })
	s.RunFor(time.Second)
	if firedAt != 100*time.Millisecond {
		t.Fatalf("fired at %v, want 100ms", firedAt)
	}
}

func TestWheelRearmAfterIdle(t *testing.T) {
	s, _, _, hosts := lan(t, 1, 1)
	w := NewTimerWheel(hosts[0], 10*time.Millisecond, 16)

	n := 0
	w.Schedule(10*time.Millisecond, func() { n++ })
	s.RunFor(200 * time.Millisecond) // wheel drains and disarms
	w.Schedule(15*time.Millisecond, func() { n++ })
	s.RunFor(200 * time.Millisecond)
	if n != 2 {
		t.Fatalf("fired %d timers across re-arm, want 2", n)
	}
	if got := s.Pending(); got != 0 {
		t.Errorf("%d events still pending after idle wheel, want 0 (wheel should disarm)", got)
	}
}

func TestWheelDeadHostDropsTimers(t *testing.T) {
	s, _, _, hosts := lan(t, 1, 1)
	h := hosts[0]
	w := NewTimerWheel(h, 10*time.Millisecond, 16)

	fired := false
	w.Schedule(50*time.Millisecond, func() { fired = true })
	s.RunFor(20 * time.Millisecond)
	h.Crash()
	s.RunFor(time.Second)
	if fired {
		t.Fatal("timer fired on a crashed host")
	}
	if w.Active() != 0 {
		t.Errorf("Active() = %d, want 0 (dead host's timers discarded)", w.Active())
	}
}

func TestWheelSteadyStateDoesNotGrowEventQueue(t *testing.T) {
	s, _, _, hosts := lan(t, 1, 1)
	w := NewTimerWheel(hosts[0], 10*time.Millisecond, 64)

	// Continuously re-arm: each firing schedules a replacement, modelling a
	// steady flow of per-request RTO timers. The simulator queue must stay
	// at one wheel event, not accumulate.
	count := 0
	var rearm func()
	rearm = func() {
		count++
		if count < 100 {
			w.Schedule(30*time.Millisecond, rearm)
		}
	}
	w.Schedule(30*time.Millisecond, rearm)
	s.RunFor(10 * time.Second)
	if count != 100 {
		t.Fatalf("fired %d, want 100", count)
	}
}

// TestSendUDPOwnedRoundTrip exercises the pooled fast path end to end,
// including reuse of the same packet and buffer records across sends.
func TestSendUDPOwnedRoundTrip(t *testing.T) {
	s, nw, _, hosts := lan(t, 1, 2)
	a, b := hosts[0], hosts[1]
	var got []string
	if _, err := b.BindUDP(netip.Addr{}, 9000, func(src, dst netip.AddrPort, payload []byte) {
		got = append(got, string(payload)) // copies before the buffer is recycled
	}); err != nil {
		t.Fatal(err)
	}
	dst := netip.AddrPortFrom(addr("10.0.0.2"), 9000)
	for i := 0; i < 3; i++ {
		buf := nw.GetBuf(5)
		copy(buf, "msg-")
		buf[4] = byte('0' + i)
		if err := a.SendUDPOwned(netip.AddrPort{}, dst, buf); err != nil {
			t.Fatal(err)
		}
		s.Run()
	}
	if len(got) != 3 || got[0] != "msg-0" || got[2] != "msg-2" {
		t.Fatalf("got %v, want [msg-0 msg-1 msg-2]", got)
	}
	// After the third round trip both pools should have their records back.
	if n := nw.PacketsOutstanding(); n != 0 {
		t.Errorf("%d packet records not back in the pool after deliveries", n)
	}
	if len(nw.freeBufs) == 0 {
		t.Error("buffer pool empty after deliveries; payload buffers not recycled")
	}
}

func TestSendUDPOwnedThroughRouter(t *testing.T) {
	s := sim.New(1)
	nw := New(s)
	left := nw.NewSegment("left", DefaultSegmentConfig())
	right := nw.NewSegment("right", DefaultSegmentConfig())

	r := nw.NewHost("router")
	r.EnableForwarding()
	rl := r.AttachNIC(left, "eth0", netip.MustParsePrefix("10.0.0.1/24"))
	_ = rl
	r.AttachNIC(right, "eth1", netip.MustParsePrefix("10.0.1.1/24"))

	a := nw.NewHost("a")
	an := a.AttachNIC(left, "eth0", netip.MustParsePrefix("10.0.0.2/24"))
	a.SetDefaultGateway(an, addr("10.0.0.1"))
	b := nw.NewHost("b")
	bn := b.AttachNIC(right, "eth0", netip.MustParsePrefix("10.0.1.2/24"))
	b.SetDefaultGateway(bn, addr("10.0.1.1"))

	var got string
	if _, err := b.BindUDP(netip.Addr{}, 9000, func(_, _ netip.AddrPort, payload []byte) {
		got = string(payload)
	}); err != nil {
		t.Fatal(err)
	}
	buf := nw.GetBuf(7)
	copy(buf, "via-rtr")
	if err := a.SendUDPOwned(netip.AddrPort{}, netip.AddrPortFrom(addr("10.0.1.2"), 9000), buf); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if got != "via-rtr" {
		t.Fatalf("payload = %q, want via-rtr", got)
	}
	if n := nw.PacketsOutstanding(); n != 0 {
		t.Errorf("%d packet records not recycled after forwarding hop", n)
	}
}

// TestEndpointCloseVsDeliver drives a frame delivery concurrently with
// Close from another goroutine: the handler must never run after Close wins
// the race, and nothing may panic under -race.
func TestEndpointCloseVsDeliver(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		s, _, _, hosts := lan(t, int64(trial+1), 2)
		a, b := hosts[0], hosts[1]
		bNIC := b.NICs()[0]

		ep, err := b.OpenEndpoint(bNIC, 9000)
		if err != nil {
			t.Fatal(err)
		}
		closed := make(chan struct{})
		ep.SetHandler(func(from env.Addr, payload []byte) {
			select {
			case <-closed:
				t.Error("handler invoked after Close completed")
			default:
			}
		})

		if err := a.SendUDP(netip.AddrPort{}, netip.AddrPortFrom(addr("10.0.0.2"), 9000), []byte("x")); err != nil {
			t.Fatal(err)
		}
		// Race Close (foreign goroutine) against the delivery running on
		// the simulation goroutine.
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep.Close()
			close(closed)
		}()
		s.Run()
		wg.Wait()

		// After Close has fully completed no later delivery may reach the
		// handler at all.
		if err := a.SendUDP(netip.AddrPort{}, netip.AddrPortFrom(addr("10.0.0.2"), 9000), []byte("y")); err != nil {
			t.Fatal(err)
		}
		s.Run()
	}
}

// TestBindAfterCloseReclaimsPort covers the port-reuse path now that Close
// no longer deletes from the socket map.
func TestBindAfterCloseReclaimsPort(t *testing.T) {
	s, _, _, hosts := lan(t, 1, 2)
	a, b := hosts[0], hosts[1]

	first, err := b.BindUDP(netip.Addr{}, 9000, func(_, _ netip.AddrPort, _ []byte) {
		t.Error("closed socket's handler invoked")
	})
	if err != nil {
		t.Fatal(err)
	}
	first.Close()

	var got string
	if _, err := b.BindUDP(netip.Addr{}, 9000, func(_, _ netip.AddrPort, payload []byte) {
		got = string(payload)
	}); err != nil {
		t.Fatalf("rebinding closed port: %v", err)
	}
	if err := a.SendUDP(netip.AddrPort{}, netip.AddrPortFrom(addr("10.0.0.2"), 9000), []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if got != "fresh" {
		t.Fatalf("payload = %q, want fresh", got)
	}
}
