package netsim

import (
	"fmt"
	"net/netip"

	"wackamole/internal/env"
)

// Endpoint adapts a host UDP socket to env.PacketConn so that protocol code
// written against the abstract runtime can run unchanged on the simulator.
// The endpoint's stationary address is the NIC's primary address; Broadcast
// sends to the NIC's subnet broadcast (and, per the env contract, the sender
// also receives its own broadcasts).
type Endpoint struct {
	host    *Host
	nic     *NIC
	port    uint16
	sock    *Socket
	handler env.Handler
}

// OpenEndpoint binds (nic.Primary(), port) and returns the packet endpoint.
func (h *Host) OpenEndpoint(nic *NIC, port uint16) (*Endpoint, error) {
	ep := &Endpoint{host: h, nic: nic, port: port}
	sock, err := h.BindUDP(netip.Addr{}, port, func(src, _ netip.AddrPort, payload []byte) {
		if ep.handler != nil {
			ep.handler(src, payload)
		}
	})
	if err != nil {
		return nil, err
	}
	ep.sock = sock
	return ep, nil
}

// LocalAddr implements env.PacketConn.
func (e *Endpoint) LocalAddr() env.Addr { return netip.AddrPortFrom(e.nic.Primary(), e.port) }

// SendTo implements env.PacketConn.
func (e *Endpoint) SendTo(to env.Addr, payload []byte) error {
	if e.sock.closed.Load() {
		return fmt.Errorf("netsim: endpoint %s closed", e.LocalAddr())
	}
	return e.host.SendUDP(e.LocalAddr(), to, payload)
}

// Broadcast implements env.PacketConn.
func (e *Endpoint) Broadcast(payload []byte) error {
	return e.SendTo(netip.AddrPortFrom(e.nic.Broadcast(), e.port), payload)
}

// SetHandler implements env.PacketConn.
func (e *Endpoint) SetHandler(h env.Handler) { e.handler = h }

// Close implements env.PacketConn. It is safe to call from any goroutine,
// and it only sets the socket's flag: a delivery that reads the flag after
// Close returns drops the datagram, while one that read it before may still
// run the handler. Making Close wait would put a lock on every frame.
func (e *Endpoint) Close() error {
	e.sock.Close()
	return nil
}

var _ env.PacketConn = (*Endpoint)(nil)

// Env returns a complete protocol runtime for this endpoint, logging through
// log (nil means discard).
func (e *Endpoint) Env(log env.Logger) env.Env {
	if log == nil {
		log = env.NopLogger{}
	}
	return env.Env{Clock: e.host, Conn: e, Log: log}
}
