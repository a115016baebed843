package flow

import (
	"errors"
	"net/netip"
	"slices"
	"testing"
	"time"

	"wackamole/internal/metrics"
)

// runFunc makes a plain function a timeout's sim.Runnable.
type runFunc func()

func (f runFunc) Run() { f() }

// retransmitRig is a client with one established connection to each of the
// given server addresses and a server whose interface is then taken down, so
// every request issued from here on retransmits.
func retransmitRig(t *testing.T, seed int64, peers ...string) (*rig, *Client, map[string]*Conn, *metrics.Registry) {
	t.Helper()
	r := newRig(t, seed)
	nic := r.server.NICs()[0]
	for _, a := range peers {
		if a != "10.0.0.2" {
			if err := nic.AddAddr(netip.MustParseAddr(a)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := NewServer(r.server, 8090, ServerConfig{}); err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	c, err := NewClient(r.client, 9100, ClientConfig{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	conns := map[string]*Conn{}
	for _, a := range peers {
		r.target = netip.AddrPortFrom(netip.MustParseAddr(a), 8090)
		conns[a] = dial(t, r, c)
	}
	nic.SetUp(false)
	return r, c, conns, reg
}

// retransmitLog is a client's retransmissions as (peer, instant), in the
// order they were sent.
type retransmitLog struct {
	peers []string
	at    []time.Duration
}

// request issues a request on conn whose timeout logs each retransmission
// it is about to send, then runs as it would have.
func (l *retransmitLog) request(conn *Conn, payload []byte, cb func([]byte, time.Duration, error)) {
	conn.Request(payload, cb)
	p := conn.last
	p.timer.run = runFunc(func() {
		if p.retries < maxRetries {
			l.peers = append(l.peers, p.conn.peer.Addr().String())
			l.at = append(l.at, p.conn.client.elapsed())
		}
		p.Run()
	})
}

// TestRetransmissionsOnTheGridInIssueOrder: a request retransmits on the
// grid, never before rto has passed and at most one grid step after it, and
// requests due at the same instant retransmit in the order they were issued.
func TestRetransmissionsOnTheGridInIssueOrder(t *testing.T) {
	issue := []string{"10.0.0.6", "10.0.0.5", "10.0.0.3", "10.0.0.4", "10.0.0.2"}
	offsets := []time.Duration{0, 1, rtoGrid / 2, rtoGrid - 1, rtoGrid}
	r, _, conns, _ := retransmitRig(t, 21, issue...)
	var log retransmitLog
	base := (r.s.Elapsed()/rtoGrid + 1) * rtoGrid
	for i, a := range issue {
		conn := conns[a]
		r.s.AfterFunc(base+offsets[i]-r.s.Elapsed(), func() {
			log.request(conn, []byte("x"), func([]byte, time.Duration, error) {})
		})
	}
	r.s.RunFor(base - r.s.Elapsed() + 3*rto + rtoGrid)
	// The first request was issued on the grid and is due exactly rto
	// later; the other four round up to the same next grid instant.
	var want []string
	var wantAt []time.Duration
	for round := time.Duration(1); round <= 3; round++ {
		want = append(want, issue[0])
		wantAt = append(wantAt, base+round*rto)
		for _, a := range issue[1:] {
			want = append(want, a)
			wantAt = append(wantAt, base+rtoGrid+round*rto)
		}
	}
	if !slices.Equal(log.peers, want) || !slices.Equal(log.at, wantAt) {
		t.Fatalf("retransmitted to %v at %v, want %v at %v", log.peers, log.at, want, wantAt)
	}
}

// TestExpiryPassSeesStopsAndArms: a callback run from the expiry pass may
// stop a timeout the pass has not reached yet, here by closing another
// connection whose request is due at the same instant, and may arm a new
// one, which waits its own rto.
func TestExpiryPassSeesStopsAndArms(t *testing.T) {
	r, c, conns, reg := retransmitRig(t, 23, "10.0.0.2", "10.0.0.3", "10.0.0.4")
	a, b, next := conns["10.0.0.2"], conns["10.0.0.3"], conns["10.0.0.4"]
	var log retransmitLog
	var errA, errB, errNext error
	nextIssued := time.Duration(-1)
	log.request(a, []byte("x"), func(_ []byte, _ time.Duration, err error) {
		errA = err
		nextIssued = r.s.Elapsed()
		log.request(next, []byte("y"), func(_ []byte, _ time.Duration, err error) { errNext = err })
		b.Close() // after the new request, which takes the first's record, so b's is not reused
	})
	log.request(b, []byte("x"), func(_ []byte, _ time.Duration, err error) { errB = err })
	r.s.RunFor((maxRetries + 2) * (rto + rtoGrid))
	if !errors.Is(errA, ErrTimedOut) || !errors.Is(errB, errClosed) {
		t.Fatalf("first request err = %v, second = %v; want ErrTimedOut, then errClosed from the first's callback", errA, errB)
	}
	if v := RegisterClientMetrics(reg).Timeouts.Value(); v != 1 {
		t.Errorf("timeouts counter = %d, want 1: the closed connection's request must not time out too", v)
	}
	if errNext != nil || armed(c) != 1 {
		t.Fatalf("request armed from the pass: err = %v, %d timeouts armed; want it in flight, alone", errNext, armed(c))
	}
	if i := slices.Index(log.peers, "10.0.0.4"); i < 0 || log.at[i] != nextIssued+rto {
		t.Errorf("request armed from the expiry pass at %v: retransmissions to %v at %v, want its first one rto later", nextIssued, log.peers, log.at)
	}
}

// TestCrashedClientDropsDueTimeouts: while the client's host is down, the
// timeouts that come due are dropped and nothing runs: no retransmission, no
// timeout, no callback. What a restart should do instead is open (the
// request stays parked).
func TestCrashedClientDropsDueTimeouts(t *testing.T) {
	r, c, conns, reg := retransmitRig(t, 24, "10.0.0.2")
	called := false
	conns["10.0.0.2"].Request([]byte("x"), func([]byte, time.Duration, error) { called = true })
	dialing := false
	r.target = netip.AddrPortFrom(netip.MustParseAddr("10.0.0.2"), 8090)
	c.Dial(r.target, func(*Conn, error) { dialing = true })
	if armed(c) != 2 {
		t.Fatalf("%d timeouts armed, want a request's and a dial's", armed(c))
	}
	r.client.Crash()
	r.s.RunFor((maxRetries + 2) * (rto + rtoGrid))
	r.client.Restart()
	m := RegisterClientMetrics(reg)
	if called || dialing || m.Retransmits.Value() != 0 || m.Timeouts.Value() != 0 {
		t.Errorf("on a dead host: callbacks run %v/%v, %d retransmits, %d timeouts; want nothing",
			called, dialing, m.Retransmits.Value(), m.Timeouts.Value())
	}
	if armed(c) != 0 || r.s.Pending() != 0 {
		t.Errorf("%d timeouts armed and %d events pending after the drop, want none", armed(c), r.s.Pending())
	}
}

// TestTimeoutsDoNotAllocate pins what BenchmarkRetransmissionTimeout
// reports: arming, cancelling and firing a timeout allocate nothing.
func TestTimeoutsDoNotAllocate(t *testing.T) {
	r := newRig(t, 26)
	c, err := NewClient(r.client, 9100, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	tm := timeout{run: runFunc(func() { fired++ })}
	if avg := testing.AllocsPerRun(100, func() {
		c.arm(&tm)
		tm.stop()
		c.arm(&tm)
		r.s.RunFor(rto + rtoGrid)
	}); avg != 0 {
		t.Errorf("arm + cancel + arm + fire allocates %.2f, want 0", avg)
	}
	if fired != 101 {
		t.Errorf("fired %d times, want once per run (101)", fired)
	}
}

// BenchmarkRetransmissionTimeout is what a request costs its client's
// timeout list: one answered in flight is an arm and a cancel, one left to
// retransmit once is an arm and a fire.
func BenchmarkRetransmissionTimeout(b *testing.B) {
	r := newRig(b, 1)
	c, err := NewClient(r.client, 9100, ClientConfig{})
	if err != nil {
		b.Fatal(err)
	}
	fired := 0
	tm := timeout{run: runFunc(func() { fired++ })}
	standing := timeout{run: runFunc(func() {})}
	b.Run("cancel", func(b *testing.B) {
		c.arm(&standing) // another request in flight
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.arm(&tm)
			tm.stop()
		}
		standing.stop()
	})
	b.Run("fire", func(b *testing.B) {
		r.s.RunFor(rto + rtoGrid) // the expiry left by the cancel runs
		fired = 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.arm(&tm)
			r.s.RunFor(rto + rtoGrid)
		}
		if fired != b.N {
			b.Fatalf("fired %d of %d", fired, b.N)
		}
	})
}
