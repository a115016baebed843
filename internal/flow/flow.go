// Package flow implements a minimal connection-oriented transport on top of
// netsim UDP sockets — just enough of a TCP-like protocol to reproduce the
// connection-level failover semantics the Wackamole paper describes for its
// web-cluster application (§2, §6): "clients with open connections to the
// failed server lose their connections, while new connections are directed
// to the server that took over."
//
// The protocol is request/response over explicit connections:
//
//   - a three-way handshake (SYN, SYN|ACK, ACK) opens a connection
//     identified by a client-chosen 32-bit id;
//   - each request is a DATA segment carrying a per-connection sequence
//     number; the server replies with DATA|ACK echoing that sequence;
//   - unacknowledged segments are retransmitted on a fixed RTO with a
//     bounded retry budget (each client keeps its timeouts on one list in
//     deadline order behind one simulator timer, so thousands of in-flight
//     requests cost one simulator event per instant that one comes due);
//   - any non-SYN segment for an unknown connection draws an RST. This is
//     the load-bearing rule: after a takeover the new owner of a virtual
//     address has none of the failed server's connection state, so every
//     orphaned flow that retransmits into it is reset — exactly how a real
//     server's kernel answers a foreign TCP segment, and exactly the
//     client-visible connection loss the paper claims.
//
// Delivery to the server is at-least-once: a response lost on the return
// path causes the client to retransmit the request and the server to
// re-execute the handler. The measurement workloads only read responses, so
// re-execution is benign; a production protocol would deduplicate.
//
// The send path is allocation-free in steady state: transmitted segments
// come from the network's payload pool (SendUDPOwned), and a request in
// flight is one pooled record — it embeds its retransmission timeout, which
// is its own entry on the client's list, keeps its encoded segment from one
// use to the next, and is linked to its connection, and later to the
// client's free list, through a pointer of its own. New records are carved
// from per-client slabs, and their segments from a per-client byte arena, each
// one malloc size class (slabBytes) large, so a fault that parks thousands of
// requests at once costs one allocation per slab's worth of them, and nothing
// when the records are used again. Callbacks run on the simulation goroutine
// and must not retain payload slices past their return.
package flow

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"time"
	"unsafe"

	"wackamole/internal/metrics"
	"wackamole/internal/netsim"
	"wackamole/internal/sim"
)

// Wire format: 13-byte header, then the payload.
//
//	[0]    flags
//	[1:5]  connection id (big endian)
//	[5:9]  sequence number
//	[9:13] acknowledgement number
const headerLen = 13

const (
	flagSYN  = 1 << iota // connection open request
	flagACK              // acknowledges seq in the ack field
	flagRST              // connection does not exist here; peer must abort
	flagFIN              // graceful close
	flagDATA             // carries a request or response payload
)

// Protocol errors surfaced to request and dial callbacks.
var (
	// ErrReset reports that the peer answered with an RST — the connection
	// is unknown on the remote side (typically because a takeover server
	// has no state for flows opened against the failed one).
	ErrReset = errors.New("flow: connection reset by peer")
	// ErrTimedOut reports that the retry budget was exhausted with no
	// acknowledgement.
	ErrTimedOut = errors.New("flow: timed out")
	// errClosed reports use of a locally closed connection or client.
	errClosed = errors.New("flow: connection closed")
)

func putHeader(b []byte, flags byte, id, seq, ack uint32) {
	b[0] = flags
	binary.BigEndian.PutUint32(b[1:5], id)
	binary.BigEndian.PutUint32(b[5:9], seq)
	binary.BigEndian.PutUint32(b[9:13], ack)
}

type header struct {
	flags byte
	id    uint32
	seq   uint32
	ack   uint32
}

func parseHeader(b []byte) (header, bool) {
	if len(b) < headerLen {
		return header{}, false
	}
	return header{
		flags: b[0],
		id:    binary.BigEndian.Uint32(b[1:5]),
		seq:   binary.BigEndian.Uint32(b[5:9]),
		ack:   binary.BigEndian.Uint32(b[9:13]),
	}, true
}

// ClientMetrics bundles the client-side counter instruments. Registering
// them through one constructor keeps the family set stable whether or not
// any traffic flows — wackcheck's counter report depends on that.
type ClientMetrics struct {
	ConnsOpened *metrics.Counter
	ConnsReset  *metrics.Counter
	Retransmits *metrics.Counter
	Timeouts    *metrics.Counter
}

// RegisterClientMetrics creates (or finds) the client counter families in r.
// A nil registry yields nil-safe no-op instruments.
func RegisterClientMetrics(r *metrics.Registry) ClientMetrics {
	return ClientMetrics{
		ConnsOpened: r.Counter("flow_conns_opened_total", "connections that completed the three-way handshake"),
		ConnsReset:  r.Counter("flow_conns_reset_total", "connections aborted by a peer RST"),
		Retransmits: r.Counter("flow_retransmits_total", "segment retransmissions after an RTO"),
		Timeouts:    r.Counter("flow_conns_timeout_total", "connections or requests abandoned after the retry budget"),
	}
}

// ServerMetrics bundles the server-side counter instruments.
type ServerMetrics struct {
	Accepts   *metrics.Counter
	Responses *metrics.Counter
	RSTsSent  *metrics.Counter
}

// RegisterServerMetrics creates (or finds) the server counter families in r.
func RegisterServerMetrics(r *metrics.Registry) ServerMetrics {
	return ServerMetrics{
		Accepts:   r.Counter("flow_accepts_total", "connections accepted (SYN|ACK sent)"),
		Responses: r.Counter("flow_responses_total", "request handler executions answered"),
		RSTsSent:  r.Counter("flow_rsts_sent_total", "RSTs sent for segments addressed to unknown connections"),
	}
}

// ---------------------------------------------------------------------------
// Server

// ServerConfig parameterizes a flow server.
type ServerConfig struct {
	// Handler produces the response for one request. The request slice is
	// only valid for the duration of the call; the returned slice is copied
	// onto the wire before Handler can run again, so returning a reused
	// buffer is both allowed and what the zero-allocation path expects.
	// A nil Handler answers every request with the host's name.
	Handler func(req []byte) []byte
	// Metrics receives the server counter families (nil disables).
	Metrics *metrics.Registry
}

// serverKey identifies a connection by the client's IPv4 address and port and
// its connection id. The fields are ordered so the ten bytes are contiguous:
// the map hashes them in one run.
type serverKey struct {
	ip   [4]byte
	id   uint32
	port uint16
}

// Server answers flow requests on one UDP port, typically bound across all
// the virtual addresses a cluster node may come to own (the socket binds
// the wildcard address, as the paper's service daemons do).
type Server struct {
	host  *netsim.Host
	cfg   ServerConfig
	conns map[serverKey]struct{} // the connections this server holds state for
	m     ServerMetrics
	name  []byte
}

// NewServer binds a flow server to port on h.
func NewServer(h *netsim.Host, port uint16, cfg ServerConfig) (*Server, error) {
	s := &Server{
		host:  h,
		cfg:   cfg,
		conns: make(map[serverKey]struct{}),
		m:     RegisterServerMetrics(cfg.Metrics),
		name:  []byte(h.Name()),
	}
	if _, err := h.BindUDP(netip.Addr{}, port, s.receive); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Server) receive(src, dst netip.AddrPort, payload []byte) {
	h, ok := parseHeader(payload)
	if !ok {
		return
	}
	if !src.Addr().Is4() {
		return // the network delivers nothing else
	}
	key := serverKey{ip: src.Addr().As4(), id: h.id, port: src.Port()}
	_, known := s.conns[key]

	switch {
	case h.flags&flagSYN != 0:
		if !known {
			s.conns[key] = struct{}{}
			s.m.Accepts.Inc()
		}
		// SYN|ACK — repeated for a retransmitted SYN, which also covers the
		// case of our SYN|ACK having been lost.
		s.reply(src, dst, flagSYN|flagACK, h.id, 0, h.seq, nil)

	case h.flags&flagRST != 0:
		delete(s.conns, key)

	case !known:
		// The paper's takeover semantics: no state for this flow here, so
		// the sender must abort it.
		s.m.RSTsSent.Inc()
		s.reply(src, dst, flagRST, h.id, 0, h.seq, nil)

	case h.flags&flagFIN != 0:
		delete(s.conns, key)

	case h.flags&flagDATA != 0:
		resp := payload[headerLen:]
		if s.cfg.Handler != nil {
			resp = s.cfg.Handler(resp)
		} else {
			resp = s.name
		}
		s.m.Responses.Inc()
		s.reply(src, dst, flagDATA|flagACK, h.id, h.seq, h.seq, resp)

	case h.flags&flagACK != 0:
		// Final leg of the handshake: the SYN already entered the connection.
	}
}

// reply sends one segment back to src, sourced from the address the inbound
// segment was addressed to — which is what keeps responses flowing from the
// virtual address the client connected to.
func (s *Server) reply(src, dst netip.AddrPort, flags byte, id, seq, ack uint32, payload []byte) {
	nw := s.host.Network()
	buf := nw.GetBuf(headerLen + len(payload))
	putHeader(buf, flags, id, seq, ack)
	copy(buf[headerLen:], payload)
	if err := s.host.SendUDPOwned(dst, src, buf); err != nil {
		nw.PutBuf(buf)
	}
}

// ---------------------------------------------------------------------------
// Client

const (
	// rto is the fixed retransmission timeout. Deadlines are rounded up to
	// rtoGrid.
	rto = 250 * time.Millisecond
	// maxRetries bounds retransmissions per segment: up to ten
	// transmissions ≈ 2.5s of persistence — long enough to span a tuned
	// failover and collect the takeover server's RST.
	maxRetries = 9
	// rtoGrid is the granularity of retransmission deadlines. Every
	// simulated stream was recorded with retransmissions on this grid, and
	// dropping it would move them all.
	rtoGrid = rto / 8
)

// ClientConfig parameterizes a flow client.
type ClientConfig struct {
	// Metrics receives the client counter families (nil disables).
	Metrics *metrics.Registry
}

// Client multiplexes many flow connections over one local UDP port,
// distinguishing them by connection id. One Client drives every simulated
// browser on its host; per-connection state is pooled.
type Client struct {
	host   *netsim.Host
	sim    *sim.Sim
	port   uint16
	sock   *netsim.Socket
	conns  map[uint32]*Conn
	nextID uint32
	m      ClientMetrics
	closed bool

	// timeouts is the sentinel of the armed timeouts' list, earliest first,
	// and expiry is armed, while ticking, no later than the first of them.
	timeouts timeout
	expiry   sim.Timer
	ticking  bool

	// Free records, most recently released first, linked through next.
	freeConns    *Conn
	freePendings *pending
	// The unused rest of the current slabs and segment arena. A record or
	// segment is carved from them when no free one is left, and never
	// returned: the free lists keep it.
	connSlab    []Conn
	pendingSlab []pending
	arena       []byte
}

// slabBytes is the size of one slab of records or of segment bytes: a malloc
// size class, so that a slab uses all but the tail of its allocation.
// Segments longer than maxCarved get an allocation of their own.
const (
	slabBytes = 8192
	maxCarved = slabBytes / 16
)

// carve returns the next unused record of *slab, refilling it with a fresh
// slab of slabBytes/size records when it is empty.
func carve[T any](slab *[]T) *T {
	if len(*slab) == 0 {
		var zero T
		*slab = make([]T, slabBytes/unsafe.Sizeof(zero))
	}
	r := &(*slab)[0]
	*slab = (*slab)[1:]
	return r
}

// segment returns an n-byte buffer for a request's encoded segment.
func (c *Client) segment(n int) []byte {
	if n > maxCarved {
		return make([]byte, n)
	}
	if len(c.arena) < n {
		c.arena = make([]byte, slabBytes)
	}
	b := c.arena[:n:n]
	c.arena = c.arena[n:]
	return b
}

// NewClient binds a flow client to localPort on h.
func NewClient(h *netsim.Host, localPort uint16, cfg ClientConfig) (*Client, error) {
	c := &Client{
		host:  h,
		sim:   h.Network().Sim(),
		port:  localPort,
		conns: make(map[uint32]*Conn),
		m:     RegisterClientMetrics(cfg.Metrics),
	}
	c.timeouts.next, c.timeouts.prev = &c.timeouts, &c.timeouts
	c.sim.Init(&c.expiry, (*expiry)(c))
	sock, err := h.BindUDP(netip.Addr{}, localPort, c.receive)
	if err != nil {
		return nil, err
	}
	c.sock = sock
	return c, nil
}

// Close aborts every connection (callbacks fire with errClosed) and unbinds
// the socket.
func (c *Client) Close() {
	if c.closed {
		return
	}
	c.closed = true
	for _, conn := range c.conns {
		conn.fail(errClosed)
	}
	c.sock.Close()
}

// connState is a Conn's lifecycle position.
type connState uint8

const (
	stateDialing connState = iota + 1
	stateEstablished
	stateClosed
)

// Conn is one client-side connection.
type Conn struct {
	client *Client
	id     uint32
	peer   netip.AddrPort
	state  connState
	seq    uint32

	// Dial state. dialTimer is the SYN retransmission timeout.
	dialCb      func(*Conn, error)
	dialRetries int
	dialTimer   timeout

	// onAbort, if set, fires once when the peer resets the connection,
	// after every outstanding request callback. Holders of a *Conn MUST
	// drop their reference in this hook: the record is pooled and will be
	// reused by a later Dial.
	onAbort func(err error)

	// Requests in flight, oldest first, linked through pending.next.
	first, last *pending

	next *Conn // the client's free list
}

// SetAbortHandler installs fn to run when the connection is torn down by
// the peer (RST), after outstanding request callbacks have fired. Local
// closes (Conn.Close, Client.Close) do not trigger it.
func (conn *Conn) SetAbortHandler(fn func(err error)) { conn.onAbort = fn }

// pending is one in-flight request. Records are pooled per client; timer is
// the retransmission timeout, armed only while the request is in flight, and
// the record is its sim.Runnable.
type pending struct {
	timer   timeout
	conn    *Conn
	next    *pending // the connection's in-flight list, or the client's free list
	seq     uint32
	master  []byte // encoded segment retained for retransmission; the buffer stays with the record
	cb      func(resp []byte, rtt time.Duration, err error)
	sentAt  time.Duration // first transmission, in virtual time elapsed
	retries int
}

// Established reports whether the handshake has completed and the
// connection is still usable.
func (conn *Conn) Established() bool { return conn.state == stateEstablished }

func (c *Client) getConn() *Conn {
	conn := c.freeConns
	if conn == nil {
		conn = carve(&c.connSlab)
		conn.client = c
		conn.dialTimer.run = (*synRetry)(conn)
	} else {
		c.freeConns, conn.next = conn.next, nil
	}
	return conn
}

// putConn and putPending take a record whose timer is not armed — it fired
// or was stopped — so the timer can be carried over as a value.
func (c *Client) putConn(conn *Conn) {
	delete(c.conns, conn.id)
	*conn = Conn{client: c, dialTimer: conn.dialTimer, next: c.freeConns}
	c.freeConns = conn
}

func (c *Client) getPending() *pending {
	p := c.freePendings
	if p == nil {
		p = carve(&c.pendingSlab)
		p.timer.run = p
	} else {
		c.freePendings, p.next = p.next, nil
	}
	return p
}

func (c *Client) putPending(p *pending) {
	*p = pending{timer: p.timer, master: p.master[:0], next: c.freePendings}
	c.freePendings = p
}

// Dial opens a connection to target. cb fires exactly once: with the
// established connection, or with ErrTimedOut (no answer within the retry
// budget), ErrReset (the peer refused) or errClosed.
func (c *Client) Dial(target netip.AddrPort, cb func(*Conn, error)) {
	if cb == nil {
		panic("flow: Dial requires a callback")
	}
	if c.closed {
		cb(nil, errClosed)
		return
	}
	c.nextID++
	conn := c.getConn()
	conn.id = c.nextID
	conn.peer = target
	conn.state = stateDialing
	conn.dialCb = cb
	c.conns[conn.id] = conn
	conn.sendSYN()
	c.arm(&conn.dialTimer)
}

func (conn *Conn) sendSYN() {
	c := conn.client
	nw := c.host.Network()
	buf := nw.GetBuf(headerLen)
	putHeader(buf, flagSYN, conn.id, 0, 0)
	if err := c.host.SendUDPOwned(c.localAddr(), conn.peer, buf); err != nil {
		nw.PutBuf(buf)
	}
}

func (c *Client) localAddr() netip.AddrPort {
	return netip.AddrPortFrom(netip.Addr{}, c.port)
}

// elapsed is the virtual clock as a plain count: a round-trip time is a
// difference, so the request path builds no time.Time.
func (c *Client) elapsed() time.Duration { return c.sim.Elapsed() }

// timeout is one retransmission deadline, embedded in the record whose run it
// fires: a request (pending) or a dialing connection (synRetry). While armed
// it is on its client's list, which holds the armed timeouts in arming order.
//
// That is deadline order, and it is why one list and one simulator timer are
// enough: every timeout is armed for the same rto from the instant it is
// armed, rounded up to the same grid, and virtual time never goes back, so a
// timeout armed later is never due earlier. Arming appends, stopping unlinks,
// and expiry only ever has to look at the head.
type timeout struct {
	next, prev *timeout // nil while not armed
	due        time.Duration
	run        sim.Runnable
}

// arm puts t, which is not armed, at the tail of the list, due rto from now
// rounded up to the grid.
func (c *Client) arm(t *timeout) {
	now := c.elapsed()
	t.due = (now + rto + rtoGrid - 1) / rtoGrid * rtoGrid
	head := &c.timeouts
	t.prev, t.next = head.prev, head
	t.prev.next, head.prev = t, t
	if !c.ticking {
		c.ticking = true
		c.expiry.Reset(t.due - now)
	}
}

// stop disarms t. Stopping leaves expiry where it is: armed for an earlier
// deadline, it finds nothing due and moves on to the new head.
func (t *timeout) stop() {
	if t.next == nil {
		return
	}
	t.prev.next, t.next.prev = t.next, t.prev
	t.next, t.prev = nil, nil
}

// expiry is a Client as its expiry timer's sim.Runnable.
type expiry Client

// Run runs every timeout that is due, in list order, and re-arms the timer
// for the new head. A run may arm a timeout (it is due later than now) or
// stop any other, the next one this pass would reach included, so the pass
// reads the head afresh each time. A dead host drops what is due unrun, as
// a crashed machine loses its soft timers.
func (e *expiry) Run() {
	c := (*Client)(e)
	now := c.elapsed()
	head := &c.timeouts
	for t := head.next; t != head && t.due <= now; t = head.next {
		t.stop()
		if c.host.Alive() {
			t.run.Run()
		}
	}
	if t := head.next; t != head {
		c.expiry.Reset(t.due - now)
	} else {
		c.ticking = false
	}
}

// synRetry is a Conn as its dial timer's sim.Runnable, which keeps Run out
// of the exported type's method set.
type synRetry Conn

// Run is the SYN retransmission handler: the timer is stopped when the dial
// ends, so a firing finds the Conn dialing.
func (r *synRetry) Run() {
	conn := (*Conn)(r)
	c := conn.client
	if conn.dialRetries >= maxRetries {
		c.m.Timeouts.Inc()
		cb := conn.dialCb
		c.putConn(conn)
		cb(nil, ErrTimedOut)
		return
	}
	conn.dialRetries++
	c.m.Retransmits.Inc()
	conn.sendSYN()
	c.arm(&conn.dialTimer)
}

// Request sends payload and fires cb exactly once with the response (and
// the first-transmission round-trip time) or an error. The response slice
// is only valid for the duration of the callback.
func (conn *Conn) Request(payload []byte, cb func(resp []byte, rtt time.Duration, err error)) {
	if cb == nil {
		panic("flow: Request requires a callback")
	}
	c := conn.client
	if conn.state != stateEstablished {
		cb(nil, 0, errClosed)
		return
	}
	conn.seq++
	p := c.getPending()
	p.conn = conn
	p.seq = conn.seq
	p.cb = cb
	p.sentAt = c.elapsed()
	if n := headerLen + len(payload); cap(p.master) < n {
		p.master = c.segment(n)
	} else {
		p.master = p.master[:n]
	}
	putHeader(p.master, flagDATA, conn.id, p.seq, 0)
	copy(p.master[headerLen:], payload)
	if conn.last == nil {
		conn.first = p
	} else {
		conn.last.next = p
	}
	conn.last = p
	p.transmit()
	c.arm(&p.timer)
}

// transmit copies the master segment into a fresh pooled buffer and sends
// it (the network consumes owned buffers on delivery, so the master must
// stay behind for retransmissions).
func (p *pending) transmit() {
	c := p.conn.client
	nw := c.host.Network()
	buf := nw.GetBuf(len(p.master))
	copy(buf, p.master)
	if err := c.host.SendUDPOwned(c.localAddr(), p.conn.peer, buf); err != nil {
		nw.PutBuf(buf)
	}
}

// Run is the retransmission handler, timer's sim.Runnable hook: the timer is
// stopped when the request completes or its connection fails, so a firing
// finds the request in flight on an established connection.
func (p *pending) Run() {
	conn := p.conn
	c := conn.client
	if p.retries >= maxRetries {
		conn.take(p.seq)
		c.m.Timeouts.Inc()
		cb := p.cb
		c.putPending(p)
		cb(nil, 0, ErrTimedOut)
		return
	}
	p.retries++
	c.m.Retransmits.Inc()
	p.transmit()
	c.arm(&p.timer)
}

// take unlinks the in-flight request numbered seq and returns it, nil if
// there is none. The list is short and stays in order of issue.
func (conn *Conn) take(seq uint32) *pending {
	var prev *pending
	for p := conn.first; p != nil; prev, p = p, p.next {
		if p.seq != seq {
			continue
		}
		if prev == nil {
			conn.first = p.next
		} else {
			prev.next = p.next
		}
		if conn.last == p {
			conn.last = prev
		}
		p.next = nil
		return p
	}
	return nil
}

// Close closes the connection gracefully: a FIN tells the server to drop
// its state. Outstanding requests fail with errClosed.
func (conn *Conn) Close() {
	if conn.state == stateClosed {
		return
	}
	c := conn.client
	// Send the FIN before fail recycles the record (which zeroes id/peer).
	if conn.state == stateEstablished {
		nw := c.host.Network()
		buf := nw.GetBuf(headerLen)
		putHeader(buf, flagFIN, conn.id, 0, 0)
		if err := c.host.SendUDPOwned(c.localAddr(), conn.peer, buf); err != nil {
			nw.PutBuf(buf)
		}
	}
	conn.fail(errClosed)
}

// fail tears the connection down, completing the dial callback or every
// outstanding request with err, oldest request first, and returns the record
// to the pool.
func (conn *Conn) fail(err error) {
	if conn.state == stateClosed {
		return
	}
	c := conn.client
	prev := conn.state
	conn.state = stateClosed
	conn.dialTimer.stop()
	var dialCb func(*Conn, error)
	if prev == stateDialing {
		dialCb = conn.dialCb
	}
	// Detach the requests and the abort hook before running callbacks: a
	// callback may issue new traffic, and putConn recycles the record.
	p := conn.first
	onAbort := conn.onAbort
	c.putConn(conn)
	if dialCb != nil {
		dialCb(nil, err)
	}
	for p != nil {
		next, cb := p.next, p.cb
		p.timer.stop()
		c.putPending(p)
		cb(nil, 0, err)
		p = next
	}
	if onAbort != nil && !errors.Is(err, errClosed) {
		onAbort(err)
	}
}

// receive dispatches one inbound segment.
func (c *Client) receive(src, dst netip.AddrPort, payload []byte) {
	h, ok := parseHeader(payload)
	if !ok {
		return
	}
	conn, known := c.conns[h.id]
	if !known {
		return // late segment for a finished connection
	}

	switch {
	case h.flags&flagRST != 0:
		c.m.ConnsReset.Inc()
		conn.fail(ErrReset)

	case h.flags&flagSYN != 0 && h.flags&flagACK != 0:
		if conn.state != stateDialing {
			return // duplicate SYN|ACK
		}
		conn.state = stateEstablished
		conn.dialTimer.stop()
		// Complete the handshake so the server stops re-acking.
		nw := c.host.Network()
		buf := nw.GetBuf(headerLen)
		putHeader(buf, flagACK, conn.id, 0, 0)
		if err := c.host.SendUDPOwned(c.localAddr(), conn.peer, buf); err != nil {
			nw.PutBuf(buf)
		}
		c.m.ConnsOpened.Inc()
		cb := conn.dialCb
		conn.dialCb = nil
		cb(conn, nil)

	case h.flags&flagDATA != 0 && h.flags&flagACK != 0:
		p := conn.take(h.ack)
		if p == nil {
			return // duplicate response
		}
		p.timer.stop()
		rtt := c.elapsed() - p.sentAt
		cb := p.cb
		c.putPending(p)
		cb(payload[headerLen:], rtt, nil)
	}
}

// String renders errors usefully in test output.
func (s connState) String() string {
	switch s {
	case stateDialing:
		return "dialing"
	case stateEstablished:
		return "established"
	case stateClosed:
		return "closed"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}
