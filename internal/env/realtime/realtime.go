// Package realtime implements the env runtime over wall-clock time and real
// UDP sockets, so the same protocol code that runs under the deterministic
// simulator also runs as an actual daemon (cmd/wackamole, the loopback
// example).
//
// Each node gets one Loop goroutine; inbound datagrams and timer firings
// are posted onto it, preserving the env contract that all callbacks are
// serialized.
package realtime

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"wackamole/internal/env"
)

// Loop serializes callbacks for one node.
type Loop struct {
	mu     sync.Mutex
	ch     chan func()
	closed bool
	done   chan struct{}
}

// NewLoop starts the callback goroutine.
func NewLoop() *Loop {
	l := &Loop{ch: make(chan func(), 256), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		for f := range l.ch {
			f()
		}
	}()
	return l
}

// Post enqueues f for serialized execution. Posts after Close are dropped.
func (l *Loop) Post(f func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.ch <- f
}

// Close stops the loop after draining queued callbacks and waits for the
// goroutine to exit.
func (l *Loop) Close() {
	l.mu.Lock()
	if !l.closed {
		l.closed = true
		close(l.ch)
	}
	l.mu.Unlock()
	<-l.done
}

// Clock is a wall clock whose timers fire on the loop.
type Clock struct {
	loop *Loop
}

// NewClock returns a Clock posting to loop.
func NewClock(loop *Loop) *Clock { return &Clock{loop: loop} }

// Now implements env.Clock.
func (c *Clock) Now() time.Time { return time.Now() }

// NewTimer implements env.Clock.
func (c *Clock) NewTimer(f func()) env.Timer { return &timer{loop: c.loop, f: f} }

// AfterFunc implements env.Clock.
func (c *Clock) AfterFunc(d time.Duration, f func()) env.Timer {
	t := c.NewTimer(f)
	t.Reset(d)
	return t
}

// timer posts its callback onto the loop when the wall deadline passes. The
// deadline passes on a runtime goroutine while Stop and Reset run on the
// loop, so a firing can already be queued behind the callback that cancels
// it; every arming therefore gets a generation, and the loop drops a firing
// whose generation is no longer the armed one. Without that a heartbeat
// handled a moment after the fault-detection deadline would still be
// followed by the fault declaration it had just cancelled.
type timer struct {
	loop *Loop
	f    func()

	mu    sync.Mutex
	wall  *time.Timer
	gen   uint64
	armed bool
}

// Reset implements env.Timer.
func (t *timer) Reset(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.wall != nil {
		t.wall.Stop()
	}
	t.gen++
	t.armed = true
	gen := t.gen
	t.wall = time.AfterFunc(d, func() { t.loop.Post(func() { t.fire(gen) }) })
}

// Stop implements env.Timer.
func (t *timer) Stop() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.wall != nil {
		t.wall.Stop()
	}
	was := t.armed
	t.armed = false
	return was
}

// fire runs on the loop.
func (t *timer) fire(gen uint64) {
	t.mu.Lock()
	live := t.armed && t.gen == gen
	if live {
		t.armed = false
	}
	t.mu.Unlock()
	if live {
		t.f()
	}
}

var _ env.Clock = (*Clock)(nil)

// Conn is an env.PacketConn over a UDP socket. Broadcast fans out to a
// configured peer list (which should include this node), making it usable
// on loopback and on networks where IP broadcast is unavailable.
type Conn struct {
	udp   *net.UDPConn
	loop  *Loop
	local env.Addr
	peers []env.Addr // resolved once, in Listen

	mu      sync.Mutex
	handler env.Handler
	closed  bool
	rdDone  chan struct{}
}

// Listen binds listen ("ip:port") and returns a Conn whose Broadcast sends
// to every address in peers.
func Listen(loop *Loop, listen string, peers []string) (*Conn, error) {
	addr, err := net.ResolveUDPAddr("udp", listen)
	if err != nil {
		return nil, fmt.Errorf("realtime: resolve %q: %w", listen, err)
	}
	udp, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("realtime: listen %q: %w", listen, err)
	}
	c := &Conn{
		udp:    udp,
		loop:   loop,
		local:  unmap(udp.LocalAddr().(*net.UDPAddr).AddrPort()),
		rdDone: make(chan struct{}),
	}
	for _, p := range peers {
		pa, err := net.ResolveUDPAddr("udp", p)
		if err != nil {
			udp.Close()
			return nil, fmt.Errorf("realtime: resolve peer %q: %w", p, err)
		}
		c.peers = append(c.peers, unmap(pa.AddrPort()))
	}
	go c.readLoop()
	return c, nil
}

// unmap turns a v4-mapped address, as a dual-stack socket reports its IPv4
// peers, into the plain IPv4 form, so an endpoint has one spelling (and one
// daemon identity) whichever socket family saw it.
func unmap(a netip.AddrPort) netip.AddrPort { return netip.AddrPortFrom(a.Addr().Unmap(), a.Port()) }

func (c *Conn) readLoop() {
	defer close(c.rdDone)
	buf := make([]byte, 64*1024)
	for {
		n, from, err := c.udp.ReadFromUDPAddrPort(buf)
		if err != nil {
			return // socket closed
		}
		payload := make([]byte, n)
		copy(payload, buf[:n])
		src := unmap(from)
		c.loop.Post(func() {
			c.mu.Lock()
			h := c.handler
			closed := c.closed
			c.mu.Unlock()
			if h != nil && !closed {
				h(src, payload)
			}
		})
	}
}

// LocalAddr implements env.PacketConn.
func (c *Conn) LocalAddr() env.Addr { return c.local }

// SendTo implements env.PacketConn; the datagram is written before it
// returns.
func (c *Conn) SendTo(to env.Addr, payload []byte) error {
	if _, err := c.udp.WriteToUDPAddrPort(payload, to); err != nil {
		return fmt.Errorf("realtime: send to %s: %w", to, err)
	}
	return nil
}

// Broadcast implements env.PacketConn by unicasting to every configured
// peer, including this node when it appears in the list.
func (c *Conn) Broadcast(payload []byte) error {
	var first error
	for _, p := range c.peers {
		if err := c.SendTo(p, payload); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// SetHandler implements env.PacketConn.
func (c *Conn) SetHandler(h env.Handler) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.handler = h
}

// Close implements env.PacketConn.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.udp.Close()
	<-c.rdDone
	return err
}

var _ env.PacketConn = (*Conn)(nil)

// NewEnv assembles a complete runtime for one real node. The returned
// cleanup closes the connection and stops the loop.
func NewEnv(listen string, peers []string, log env.Logger) (env.Env, *Loop, func(), error) {
	loop := NewLoop()
	conn, err := Listen(loop, listen, peers)
	if err != nil {
		loop.Close()
		return env.Env{}, nil, nil, err
	}
	if log == nil {
		log = env.NopLogger{}
	}
	e := env.Env{Clock: NewClock(loop), Conn: conn, Log: log}
	cleanup := func() {
		if err := conn.Close(); err != nil {
			log.Logf("realtime: close: %v", err)
		}
		loop.Close()
	}
	return e, loop, cleanup, nil
}
