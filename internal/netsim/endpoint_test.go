package netsim

import (
	"net/netip"
	"slices"
	"testing"

	"wackamole/internal/env"
)

// TestEndpointCloseVsDeliver races Close, called from another goroutine,
// against a delivery running on the simulation goroutine. Which of the two
// wins is left open: a delivery already under way when Close is called may
// still reach the handler. What is pinned is the contract env.PacketConn
// states: a delivery that begins after Close returns never reaches the
// handler, and nothing races under -race.
func TestEndpointCloseVsDeliver(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		s, _, _, hosts := lan(t, int64(trial+1), 2)
		a, b := hosts[0], hosts[1]
		ep, err := b.OpenEndpoint(b.NICs()[0], 9000)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		ep.SetHandler(func(_ env.Addr, payload []byte) { got = append(got, string(payload)) })
		send := func(payload string) {
			t.Helper()
			if err := a.SendUDP(netip.AddrPort{}, netip.AddrPortFrom(addr("10.0.0.2"), 9000), []byte(payload)); err != nil {
				t.Fatal(err)
			}
		}

		send("during")
		closed := make(chan struct{})
		go func() {
			ep.Close()
			close(closed)
		}()
		s.Run()
		<-closed
		send("after")
		s.Run()
		if slices.Contains(got, "after") || len(got) > 1 {
			t.Fatalf("trial %d: handler saw %q, want at most the datagram that raced Close", trial, got)
		}
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
