package realtime

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"wackamole/internal/env"
)

func TestLoopSerializesCallbacks(t *testing.T) {
	loop := NewLoop()
	defer loop.Close()
	var mu sync.Mutex
	inside := false
	violations := 0
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		loop.Post(func() {
			defer wg.Done()
			mu.Lock()
			if inside {
				violations++
			}
			inside = true
			mu.Unlock()
			mu.Lock()
			inside = false
			mu.Unlock()
		})
	}
	wg.Wait()
	if violations != 0 {
		t.Fatalf("%d concurrent callback executions", violations)
	}
}

func TestPostAfterCloseDropped(t *testing.T) {
	loop := NewLoop()
	loop.Close()
	loop.Post(func() { t.Error("callback ran after Close") }) // must not panic
	time.Sleep(10 * time.Millisecond)
}

func TestClockAfterFuncFiresOnLoop(t *testing.T) {
	loop := NewLoop()
	defer loop.Close()
	clock := NewClock(loop)
	done := make(chan struct{})
	clock.AfterFunc(5*time.Millisecond, func() { close(done) })
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired")
	}
}

func TestClockTimerStop(t *testing.T) {
	loop := NewLoop()
	defer loop.Close()
	clock := NewClock(loop)
	fired := make(chan struct{}, 1)
	tm := clock.AfterFunc(50*time.Millisecond, func() { fired <- struct{}{} })
	if !tm.Stop() {
		t.Fatal("Stop returned false on pending timer")
	}
	select {
	case <-fired:
		t.Fatal("stopped timer fired")
	case <-time.After(150 * time.Millisecond):
	}
}

// TestTimerCancelledAfterDeadlineDoesNotFire holds the loop busy past a
// timer's wall deadline, so its firing is already queued when the callback in
// front of it re-arms (or stops) the timer — a heartbeat handled a moment
// after the fault-detection deadline. The queued firing is stale and must be
// dropped; only the new arming counts.
func TestTimerCancelledAfterDeadlineDoesNotFire(t *testing.T) {
	for name, cancel := range map[string]func(env.Timer){
		"Reset": func(tm env.Timer) { tm.Reset(time.Hour) },
		"Stop": func(tm env.Timer) {
			if !tm.Stop() {
				t.Error("Stop = false for a timer whose callback has not run")
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			loop := NewLoop()
			defer loop.Close()
			fired := make(chan struct{}, 1)
			tm := NewClock(loop).NewTimer(func() { fired <- struct{}{} })
			busy, release := make(chan struct{}), make(chan struct{})
			loop.Post(func() {
				close(busy)
				<-release
				cancel(tm)
			})
			<-busy
			tm.Reset(time.Millisecond)
			for deadline := time.Now().Add(2 * time.Second); len(loop.ch) == 0; {
				if time.Now().After(deadline) {
					t.Fatal("the expired timer never queued its firing")
				}
				time.Sleep(time.Millisecond)
			}
			close(release)
			drained := make(chan struct{})
			loop.Post(func() { close(drained) })
			<-drained
			select {
			case <-fired:
				t.Fatalf("callback ran after %s cancelled it", name)
			default:
			}
			tm.Stop()
		})
	}
}

// TestV4MappedSourcesAreUnmapped pins that a dual-stack socket reports an
// IPv4 peer in its IPv4 spelling, so daemon identities stay "a.b.c.d:port".
func TestV4MappedSourcesAreUnmapped(t *testing.T) {
	if got := unmap(netip.MustParseAddrPort("[::ffff:10.0.0.1]:4803")); got.String() != "10.0.0.1:4803" {
		t.Fatalf("unmap = %v", got)
	}
	loop := NewLoop()
	defer loop.Close()
	dual, err := Listen(loop, "[::]:0", nil)
	if err != nil {
		t.Skipf("no dual-stack socket here: %v", err)
	}
	defer dual.Close()
	v4, err := Listen(loop, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer v4.Close()
	from := make(chan env.Addr, 1)
	dual.SetHandler(func(src env.Addr, _ []byte) { from <- src })
	to := netip.AddrPortFrom(netip.MustParseAddr("127.0.0.1"), dual.LocalAddr().Port())
	if err := v4.SendTo(to, []byte("hi")); err != nil {
		t.Skipf("the dual-stack socket is not reachable over IPv4: %v", err)
	}
	select {
	case src := <-from:
		if src != v4.LocalAddr() {
			t.Fatalf("source = %v, want %v", src, v4.LocalAddr())
		}
	case <-time.After(2 * time.Second):
		t.Skip("the dual-stack socket received nothing over IPv4")
	}
}

func TestUDPUnicastAndBroadcast(t *testing.T) {
	const n = 3
	loops := make([]*Loop, n)
	conns := make([]*Conn, n)
	// Bind ephemeral ports first, then share the peer list.
	for i := range conns {
		loops[i] = NewLoop()
		c, err := Listen(loops[i], "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	for _, c := range conns {
		for _, p := range conns {
			c.peers = append(c.peers, p.LocalAddr())
		}
	}
	defer func() {
		for i := range conns {
			if err := conns[i].Close(); err != nil {
				t.Error(err)
			}
			loops[i].Close()
		}
	}()

	type msg struct {
		to   int
		from env.Addr
		data string
	}
	got := make(chan msg, 64)
	for i, c := range conns {
		i := i
		c.SetHandler(func(from env.Addr, payload []byte) {
			got <- msg{to: i, from: from, data: string(payload)}
		})
	}

	if err := conns[0].SendTo(conns[1].LocalAddr(), []byte("uni")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.to != 1 || m.data != "uni" || m.from != conns[0].LocalAddr() {
			t.Fatalf("unexpected message %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("unicast never arrived")
	}

	if err := conns[2].Broadcast([]byte("bc")); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	deadline := time.After(2 * time.Second)
	for len(seen) < n {
		select {
		case m := <-got:
			if m.data == "bc" {
				seen[m.to] = true
			}
		case <-deadline:
			t.Fatalf("broadcast reached %d of %d (self-delivery required)", len(seen), n)
		}
	}
}

func TestNewEnvLifecycle(t *testing.T) {
	e, loop, cleanup, err := NewEnv("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.Clock == nil || e.Conn == nil || e.Log == nil {
		t.Fatal("incomplete env")
	}
	ran := make(chan struct{})
	loop.Post(func() { close(ran) })
	select {
	case <-ran:
	case <-time.After(time.Second):
		t.Fatal("loop not running")
	}
	cleanup()
	// Cleanup is idempotent at the conn level.
	if err := e.Conn.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestListenBadAddress(t *testing.T) {
	loop := NewLoop()
	defer loop.Close()
	if _, err := Listen(loop, "not-an-address", nil); err == nil {
		t.Fatal("bad address accepted")
	}
}

func TestManyMessagesNoLossOnLoopback(t *testing.T) {
	loopA, loopB := NewLoop(), NewLoop()
	defer loopA.Close()
	defer loopB.Close()
	a, err := Listen(loopA, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Listen(loopB, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var mu sync.Mutex
	count := 0
	b.SetHandler(func(_ env.Addr, _ []byte) {
		mu.Lock()
		count++
		mu.Unlock()
	})
	const total = 200
	for i := 0; i < total; i++ {
		if err := a.SendTo(b.LocalAddr(), []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		mu.Lock()
		c := count
		mu.Unlock()
		if c >= total*9/10 { // UDP: allow a sliver of kernel-buffer loss
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d of %d", c, total)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
