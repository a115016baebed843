package flow

import (
	"errors"
	"net/netip"
	"slices"
	"testing"
	"time"

	"wackamole/internal/metrics"
	"wackamole/internal/netsim"
	"wackamole/internal/sim"
)

// rig is a two-host LAN: a client host at 10.0.0.1 and a server host at
// 10.0.0.2 answering on port 8090.
type rig struct {
	s      *sim.Sim
	nw     *netsim.Network
	client *netsim.Host
	server *netsim.Host
	target netip.AddrPort
}

func newRig(t testing.TB, seed int64) *rig {
	t.Helper()
	s := sim.New(seed)
	nw := netsim.New(s)
	seg := nw.NewSegment("lan", netsim.DefaultSegmentConfig())
	ch := nw.NewHost("client")
	ch.AttachNIC(seg, "eth0", netip.MustParsePrefix("10.0.0.1/24"))
	sh := nw.NewHost("server")
	sh.AttachNIC(seg, "eth0", netip.MustParsePrefix("10.0.0.2/24"))
	return &rig{
		s: s, nw: nw, client: ch, server: sh,
		target: netip.AddrPortFrom(netip.MustParseAddr("10.0.0.2"), 8090),
	}
}

// inFlight counts the requests of conn that await a response.
func inFlight(conn *Conn) int {
	n := 0
	for p := conn.first; p != nil; p = p.next {
		n++
	}
	return n
}

// armed counts the client's armed retransmission timeouts.
func armed(c *Client) int {
	n := 0
	for t := c.timeouts.next; t != &c.timeouts; t = t.next {
		n++
	}
	return n
}

// dial establishes a connection or fails the test.
func dial(t *testing.T, r *rig, c *Client) *Conn {
	t.Helper()
	var conn *Conn
	var dialErr error
	c.Dial(r.target, func(cn *Conn, err error) { conn, dialErr = cn, err })
	r.s.RunFor(time.Second)
	if dialErr != nil {
		t.Fatalf("dial: %v", dialErr)
	}
	if conn == nil || !conn.Established() {
		t.Fatal("dial returned no established connection")
	}
	return conn
}

func TestRoundTrip(t *testing.T) {
	r := newRig(t, 1)
	reg := metrics.New()
	srv, err := NewServer(r.server, 8090, ServerConfig{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(r.client, 9100, ClientConfig{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	conn := dial(t, r, c)

	var resp string
	var rtt time.Duration
	conn.Request([]byte("GET /"), func(b []byte, d time.Duration, err error) {
		if err != nil {
			t.Fatalf("request: %v", err)
		}
		resp, rtt = string(b), d
	})
	r.s.RunFor(time.Second)

	if resp != "server" {
		t.Fatalf("response = %q, want default handler output %q", resp, "server")
	}
	if rtt <= 0 || rtt > 10*time.Millisecond {
		t.Fatalf("rtt = %v, want small positive LAN round trip", rtt)
	}
	if len(srv.conns) != 1 {
		t.Fatalf("server tracks %d conns, want 1", len(srv.conns))
	}
	if inFlight(conn) != 0 {
		t.Fatalf("in-flight = %d after completion, want 0", inFlight(conn))
	}
}

func TestCustomHandlerAndPipelining(t *testing.T) {
	r := newRig(t, 2)
	if _, err := NewServer(r.server, 8090, ServerConfig{
		Handler: func(req []byte) []byte { return append(append([]byte{}, req...), '!') },
	}); err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(r.client, 9100, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	conn := dial(t, r, c)

	got := map[string]bool{}
	for _, msg := range []string{"a", "b", "c"} {
		msg := msg
		conn.Request([]byte(msg), func(b []byte, _ time.Duration, err error) {
			if err != nil {
				t.Fatalf("request %q: %v", msg, err)
			}
			got[string(b)] = true
		})
	}
	if inFlight(conn) != 3 {
		t.Fatalf("in-flight = %d, want 3 pipelined", inFlight(conn))
	}
	r.s.RunFor(time.Second)
	for _, want := range []string{"a!", "b!", "c!"} {
		if !got[want] {
			t.Errorf("missing response %q (got %v)", want, got)
		}
	}
}

func TestRetransmitRecoversFromOutage(t *testing.T) {
	r := newRig(t, 3)
	reg := metrics.New()
	if _, err := NewServer(r.server, 8090, ServerConfig{}); err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(r.client, 9100, ClientConfig{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	conn := dial(t, r, c)

	// Take the server's interface down across the first transmission, then
	// bring it back inside the retry budget.
	nic := r.server.NICs()[0]
	nic.SetUp(false)
	r.s.AfterFunc(600*time.Millisecond, func() { nic.SetUp(true) })

	var rtt time.Duration
	done := false
	conn.Request([]byte("x"), func(b []byte, d time.Duration, err error) {
		if err != nil {
			t.Fatalf("request: %v", err)
		}
		done, rtt = true, d
	})
	r.s.RunFor(10 * time.Second)

	if !done {
		t.Fatal("request never completed")
	}
	if rtt < 600*time.Millisecond {
		t.Fatalf("rtt = %v, want ≥ outage length (measured from first send)", rtt)
	}
	m := RegisterClientMetrics(reg)
	if m.Retransmits.Value() == 0 {
		t.Error("no retransmissions counted across the outage")
	}
}

func TestRequestTimesOutAfterBudget(t *testing.T) {
	r := newRig(t, 4)
	reg := metrics.New()
	if _, err := NewServer(r.server, 8090, ServerConfig{}); err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(r.client, 9100, ClientConfig{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	conn := dial(t, r, c)
	r.server.NICs()[0].SetUp(false)

	var gotErr error
	conn.Request([]byte("x"), func(_ []byte, _ time.Duration, err error) { gotErr = err })
	r.s.RunFor(10 * time.Second)

	if !errors.Is(gotErr, ErrTimedOut) {
		t.Fatalf("err = %v, want ErrTimedOut", gotErr)
	}
	if inFlight(conn) != 0 {
		t.Fatalf("in-flight = %d after timeout, want 0", inFlight(conn))
	}
	if v := RegisterClientMetrics(reg).Timeouts.Value(); v != 1 {
		t.Errorf("timeouts counter = %d, want 1", v)
	}
	if v := RegisterClientMetrics(reg).Retransmits.Value(); v != maxRetries {
		t.Errorf("retransmits counter = %d, want the budget %d", v, maxRetries)
	}
}

// TestTakeoverServerResetsOrphanedFlow is the paper's §2/§6 claim in
// miniature: a connection opened against one server, retransmitting into a
// fresh server that holds no state for it, must be reset — not hang.
func TestTakeoverServerResetsOrphanedFlow(t *testing.T) {
	r := newRig(t, 5)
	reg := metrics.New()
	old, err := NewServer(r.server, 8090, ServerConfig{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(r.client, 9100, ClientConfig{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	conn := dial(t, r, c)

	// "Fail over": the server that answers from now on holds no state for
	// the established connection, as a fresh process on the port would not.
	fresh := old
	clear(fresh.conns)

	var gotErr error
	conn.Request([]byte("x"), func(_ []byte, _ time.Duration, err error) { gotErr = err })
	r.s.RunFor(5 * time.Second)

	if !errors.Is(gotErr, ErrReset) {
		t.Fatalf("err = %v, want ErrReset from the takeover server", gotErr)
	}
	if conn.Established() {
		t.Error("connection still established after RST")
	}
	if v := RegisterClientMetrics(reg).ConnsReset.Value(); v != 1 {
		t.Errorf("resets counter = %d, want 1", v)
	}
	if v := RegisterServerMetrics(reg).RSTsSent.Value(); v == 0 {
		t.Error("takeover server sent no RST")
	}

	// New connections against the fresh server work immediately.
	conn2 := dial(t, r, c)
	ok := false
	conn2.Request([]byte("y"), func(_ []byte, _ time.Duration, err error) { ok = err == nil })
	r.s.RunFor(time.Second)
	if !ok {
		t.Error("new connection to takeover server failed")
	}
	if len(fresh.conns) == 0 {
		t.Error("fresh server tracks no connections")
	}
}

func TestCloseSendsFIN(t *testing.T) {
	r := newRig(t, 6)
	srv, err := NewServer(r.server, 8090, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(r.client, 9100, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	conn := dial(t, r, c)
	if len(srv.conns) != 1 {
		t.Fatalf("server conns = %d, want 1", len(srv.conns))
	}
	conn.Close()
	r.s.RunFor(time.Second)
	if len(srv.conns) != 0 {
		t.Fatalf("server conns = %d after FIN, want 0", len(srv.conns))
	}
	if len(c.conns) != 0 {
		t.Fatalf("client conns = %d after close, want 0", len(c.conns))
	}
}

func TestDialTimesOutWithNoServer(t *testing.T) {
	r := newRig(t, 7)
	reg := metrics.New()
	c, err := NewClient(r.client, 9100, ClientConfig{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	var gotErr error
	c.Dial(r.target, func(_ *Conn, err error) { gotErr = err })
	r.s.RunFor(10 * time.Second)
	if !errors.Is(gotErr, ErrTimedOut) {
		t.Fatalf("err = %v, want ErrTimedOut", gotErr)
	}
	if len(c.conns) != 0 {
		t.Fatalf("client conns = %d after dial timeout, want 0", len(c.conns))
	}
	if v := RegisterClientMetrics(reg).Retransmits.Value(); v != maxRetries {
		t.Errorf("SYN retransmits = %d, want the budget %d", v, maxRetries)
	}
}

func TestManyConnectionsMultiplexed(t *testing.T) {
	r := newRig(t, 8)
	srv, err := NewServer(r.server, 8090, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(r.client, 9100, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	okResponses := 0
	for i := 0; i < n; i++ {
		c.Dial(r.target, func(conn *Conn, err error) {
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			conn.Request([]byte("ping"), func(_ []byte, _ time.Duration, err error) {
				if err != nil {
					t.Errorf("request: %v", err)
					return
				}
				okResponses++
			})
		})
	}
	r.s.RunFor(5 * time.Second)
	if okResponses != n {
		t.Fatalf("completed %d/%d requests", okResponses, n)
	}
	if len(srv.conns) != n {
		t.Fatalf("server conns = %d, want %d", len(srv.conns), n)
	}
}

// TestSteadyStateReusesPools drives repeated request cycles and then checks
// the client is serving from its pools rather than growing them.
func TestSteadyStateReusesPools(t *testing.T) {
	r := newRig(t, 9)
	if _, err := NewServer(r.server, 8090, ServerConfig{}); err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(r.client, 9100, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	conn := dial(t, r, c)

	for i := 0; i < 50; i++ {
		done := false
		conn.Request([]byte("x"), func(_ []byte, _ time.Duration, err error) {
			if err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
			done = true
		})
		r.s.RunFor(50 * time.Millisecond)
		if !done {
			t.Fatalf("request %d incomplete", i)
		}
	}
	if c.freePendings == nil || c.freePendings.next != nil {
		t.Error("pending pool does not hold exactly 1 recycled record")
	}
}

// TestParkedRequestsAllocateBySlab: a fault parks every request issued into it
// until the peer answers again or the retry budget runs out. Their records
// (each also its timeout on the client's list) and encoded segments are carved
// from slabs, so parking n of them allocates at most n/32 objects, and nothing
// at all once the records have been used before; and all of them hold one
// event on the simulator's queue.
func TestParkedRequestsAllocateBySlab(t *testing.T) {
	r := newRig(t, 12)
	if _, err := NewServer(r.server, 8090, ServerConfig{}); err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(r.client, 9100, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	conns := make([]*Conn, 16)
	for i := range conns {
		conns[i] = dial(t, r, c)
	}
	const n = 1000
	done := 0
	payload := make([]byte, 64)
	onResp := func(_ []byte, _ time.Duration, err error) {
		if err != nil {
			t.Fatalf("request: %v", err)
		}
		done++
	}
	burst := func() {
		for i := 0; i < n; i++ {
			conns[i%len(conns)].Request(payload, onResp)
		}
	}
	nic := r.server.NICs()[0]
	nic.SetUp(false)
	if avg := testing.AllocsPerRun(1, burst); avg > n/32 {
		t.Errorf("parking %d requests on a dead peer allocates %.0f, want at most %d (records and segments by the slab)", n, avg, n/32)
	}
	if got := armed(c); got != 2*n { // AllocsPerRun runs the burst twice
		t.Fatalf("%d retransmission timeouts armed, want %d", got, 2*n)
	}
	r.s.RunFor(10 * time.Millisecond) // every frame has reached the dead interface
	if got := r.s.Pending(); got != 1 {
		t.Fatalf("%d parked requests hold %d events on the simulator's queue, want 1", 2*n, got)
	}
	nic.SetUp(true)
	r.s.RunFor(time.Second)
	if done != 2*n || armed(c) != 0 {
		t.Fatalf("%d of %d parked requests answered after recovery, %d timeouts still armed", done, 2*n, armed(c))
	}
	if avg := testing.AllocsPerRun(3, func() {
		burst()
		r.s.RunFor(time.Second)
	}); avg != 0 {
		t.Errorf("a burst of %d requests after recovery allocates %.0f, want 0", n, avg)
	}
}

// TestFailCompletesOldestFirst: requests complete out of order — responses,
// here for the second and the newest of five — and whatever is still in flight
// when the connection goes is failed in the order it was issued.
func TestFailCompletesOldestFirst(t *testing.T) {
	r := newRig(t, 13)
	if _, err := NewServer(r.server, 8090, ServerConfig{}); err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(r.client, 9100, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	conn := dial(t, r, c)
	r.server.NICs()[0].SetUp(false)

	var order []int
	var errs []error
	request := func(i int) {
		conn.Request([]byte("x"), func(_ []byte, _ time.Duration, err error) {
			order = append(order, i)
			errs = append(errs, err)
		})
	}
	for i := 1; i <= 5; i++ {
		request(i) // sequence number i
	}
	answer := func(seq uint32) {
		seg := make([]byte, headerLen)
		putHeader(seg, flagDATA|flagACK, conn.id, seq, seq)
		c.receive(r.target, netip.AddrPortFrom(netip.MustParseAddr("10.0.0.1"), 9100), seg)
	}
	answer(2)
	answer(5)
	answer(2) // a duplicate finds nothing
	request(6)
	if got := inFlight(conn); got != 4 {
		t.Fatalf("in-flight = %d, want 4", got)
	}
	conn.Close()
	if want := []int{2, 5, 1, 3, 4, 6}; !slices.Equal(order, want) {
		t.Fatalf("completion order = %v, want %v", order, want)
	}
	for i, err := range errs {
		if wantErr := i >= 2; (err != nil) != wantErr || wantErr && !errors.Is(err, errClosed) {
			t.Errorf("completion %d (request %d): err = %v", i, order[i], err)
		}
	}
	if armed(c) != 0 {
		t.Errorf("%d timeouts armed after the connection closed, want 0", armed(c))
	}
}

// TestCrashedHostTimeoutDoesNotDangle: a crashed host drops the timeouts that
// come due, and a parked request whose timeout went that way must not be able
// to cancel anybody else's when its connection is closed later. With pooled
// timeout entries it could: the dropped entry was reused by the next request,
// and closing the first connection stopped it.
func TestCrashedHostTimeoutDoesNotDangle(t *testing.T) {
	r := newRig(t, 14)
	if _, err := NewServer(r.server, 8090, ServerConfig{}); err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(r.client, 9100, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	a, b := dial(t, r, c), dial(t, r, c)
	r.server.NICs()[0].SetUp(false)

	var errA, errB error
	a.Request([]byte("x"), func(_ []byte, _ time.Duration, err error) { errA = err })
	r.client.Crash()
	r.s.RunFor(time.Second)
	r.client.Restart()
	b.Request([]byte("y"), func(_ []byte, _ time.Duration, err error) { errB = err })
	a.Close()
	if !errors.Is(errA, errClosed) {
		t.Fatalf("request on the closed connection: err = %v, want errClosed", errA)
	}
	r.s.RunFor(10 * time.Second)
	if !errors.Is(errB, ErrTimedOut) {
		t.Fatalf("request on the other connection: err = %v, want ErrTimedOut after its own retransmissions", errB)
	}
}

// TestServerIgnoresPeersOutsideTheModel: the network delivers IPv4 only, and a
// segment claiming to come from anything else must be dropped where the
// connection key is built, not panic there.
func TestServerIgnoresPeersOutsideTheModel(t *testing.T) {
	r := newRig(t, 1)
	srv, err := NewServer(r.server, 8090, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	syn := make([]byte, headerLen)
	putHeader(syn, flagSYN, 1, 0, 0)
	for _, peer := range []netip.Addr{{}, netip.MustParseAddr("2001:db8::1"), netip.MustParseAddr("::ffff:10.0.0.1")} {
		srv.receive(netip.AddrPortFrom(peer, 9100), r.target, syn)
	}
	r.s.Run()
	if len(srv.conns) != 0 {
		t.Fatalf("server tracks %d connections from peers that are not IPv4", len(srv.conns))
	}
}

// BenchmarkRoutedRoundTrip is one request and its response between a client
// and a server on different segments, so each direction is two frames and a
// forwarding decision: client → router → server → router → client.
func BenchmarkRoutedRoundTrip(b *testing.B) {
	s := sim.New(1)
	nw := netsim.New(s)
	outside := nw.NewSegment("outside", netsim.DefaultSegmentConfig())
	inside := nw.NewSegment("inside", netsim.DefaultSegmentConfig())
	router := nw.NewHost("router")
	router.AttachNIC(outside, "eth0", netip.MustParsePrefix("192.168.1.1/24"))
	router.AttachNIC(inside, "eth1", netip.MustParsePrefix("10.0.0.1/24"))
	router.EnableForwarding()
	ch := nw.NewHost("client")
	ch.SetDefaultGateway(ch.AttachNIC(outside, "eth0", netip.MustParsePrefix("192.168.1.2/24")), netip.MustParseAddr("192.168.1.1"))
	sh := nw.NewHost("server")
	sh.SetDefaultGateway(sh.AttachNIC(inside, "eth0", netip.MustParsePrefix("10.0.0.2/24")), netip.MustParseAddr("10.0.0.1"))
	if _, err := NewServer(sh, 8090, ServerConfig{}); err != nil {
		b.Fatal(err)
	}
	c, err := NewClient(ch, 9100, ClientConfig{})
	if err != nil {
		b.Fatal(err)
	}
	var conn *Conn
	c.Dial(netip.AddrPortFrom(netip.MustParseAddr("10.0.0.2"), 8090), func(cn *Conn, err error) {
		if err != nil {
			b.Fatal(err)
		}
		conn = cn
	})
	s.RunFor(time.Second)
	done := 0
	onResp := func(_ []byte, _ time.Duration, err error) {
		if err != nil {
			b.Fatal(err)
		}
		done++
	}
	payload := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn.Request(payload, onResp)
		s.RunFor(2 * time.Millisecond) // four frames of at most 300µs each
	}
	if done != b.N {
		b.Fatalf("%d of %d requests answered", done, b.N)
	}
}
