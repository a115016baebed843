package load

import (
	"net/netip"
	"slices"
	"testing"
	"time"

	"wackamole/internal/flow"
	"wackamole/internal/metrics"
	"wackamole/internal/netsim"
	"wackamole/internal/sim"
)

// rig is a two-host LAN: a client host and a server host answering flow
// requests on 8090.
type rig struct {
	s      *sim.Sim
	seg    *netsim.Segment
	client *netsim.Host
	server *netsim.Host
	target netip.AddrPort
}

// completed is the number of requests st counts in any class.
func completed(st Stats) uint64 {
	var n uint64
	for _, c := range st.Requests {
		n += c
	}
	return n
}

// okAfter reports whether the log holds an ok completion later than at.
func okAfter(log []Completion, at time.Time) bool {
	for _, c := range log {
		if c.Class == ClassOK && c.At.After(at) {
			return true
		}
	}
	return false
}

func newRig(t *testing.T, seed int64) *rig {
	t.Helper()
	s := sim.New(seed)
	nw := netsim.New(s)
	seg := nw.NewSegment("lan", netsim.DefaultSegmentConfig())
	ch := nw.NewHost("client")
	ch.AttachNIC(seg, "eth0", netip.MustParsePrefix("10.0.0.1/24"))
	sh := nw.NewHost("server")
	sh.AttachNIC(seg, "eth0", netip.MustParsePrefix("10.0.0.2/24"))
	if _, err := flow.NewServer(sh, 8090, flow.ServerConfig{}); err != nil {
		t.Fatal(err)
	}
	return &rig{
		s: s, seg: seg, client: ch, server: sh,
		target: netip.AddrPortFrom(netip.MustParseAddr("10.0.0.2"), 8090),
	}
}

func TestOpenLoopRateAndClassification(t *testing.T) {
	r := newRig(t, 1)
	reg := metrics.New()
	e, err := New(r.client, Config{
		Clients: 100, Mode: Open, RPS: 500, Target: r.target, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	r.s.RunFor(10 * time.Second)
	e.Stop()

	st := e.Stats()
	total := completed(st)
	// Poisson with mean 5000; allow wide but meaningful bounds.
	if total < 4000 || total > 6000 {
		t.Fatalf("completed %d requests in 10s at 500rps, want ≈5000", total)
	}
	if st.Requests[ClassOK] != total {
		t.Fatalf("fault-free run had %d non-ok requests (stats %+v)", total-st.Requests[ClassOK], st.Requests)
	}
	if got := e.ByServer()["server"]; got != total {
		t.Errorf("ByServer[server] = %d, want %d", got, total)
	}
	// The latency histogram family must carry every response.
	hist := reg.Snapshot().MergedHistogram("load_request_latency_seconds")
	if hist.Count() != total {
		t.Errorf("latency histogram count = %d, want %d", hist.Count(), total)
	}
}

func TestClosedLoopThinkTimePacing(t *testing.T) {
	r := newRig(t, 2)
	e, err := New(r.client, Config{
		Clients: 50, Mode: Closed, ThinkTime: 100 * time.Millisecond, Target: r.target,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	r.s.RunFor(10 * time.Second)
	e.Stop()

	st := e.Stats()
	total := completed(st)
	// 50 clients cycling every ≈100ms ⇒ ≈500 req/s ⇒ ≈5000 in 10s (minus
	// the staggered start of up to one think time per client).
	if total < 4000 || total > 5100 {
		t.Fatalf("completed %d requests, want ≈4950", total)
	}
	if st.Requests[ClassOK] != total {
		t.Fatalf("fault-free closed loop had errors: %+v", st.Requests)
	}
	if st.DialsOK != 50 {
		t.Errorf("DialsOK = %d, want 50 (one per client)", st.DialsOK)
	}
	if st.ConnsLost != 0 {
		t.Errorf("ConnsLost = %d in fault-free run, want 0", st.ConnsLost)
	}
}

// TestTakeoverResetsAndRecovery emulates a takeover at the flow level: the
// service address moves to a backup with no connection state. Established
// closed-loop clients must be reset, redial, and recover full goodput.
func TestTakeoverResetsAndRecovery(t *testing.T) {
	r := newRig(t, 3)
	vip := netip.MustParseAddr("10.0.0.100")
	if err := r.server.NICs()[0].AddAddr(vip); err != nil {
		t.Fatal(err)
	}
	backup := r.server.Network().NewHost("backup")
	bnic := backup.AttachNIC(r.seg, "eth0", netip.MustParsePrefix("10.0.0.3/24"))
	if _, err := flow.NewServer(backup, 8090, flow.ServerConfig{}); err != nil {
		t.Fatal(err)
	}
	e, err := New(r.client, Config{
		Clients: 200, Mode: Closed, ThinkTime: 200 * time.Millisecond,
		Target: netip.AddrPortFrom(vip, 8090),
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	r.s.RunFor(3 * time.Second) // warm up: all 200 connected
	e.ResetStats()
	r.s.RunFor(2 * time.Second) // pre-fault window

	// The backup takes the address over: existing connections become
	// orphans.
	if err := r.server.NICs()[0].RemoveAddr(vip); err != nil {
		t.Fatal(err)
	}
	if err := bnic.AddAddr(vip); err != nil {
		t.Fatal(err)
	}
	if err := backup.SendGratuitousARP(bnic, vip); err != nil {
		t.Fatal(err)
	}
	r.s.RunFor(5 * time.Second)
	stopAt := r.client.Now()
	e.Stop()

	st := e.Stats()
	if st.ConnsLost == 0 {
		t.Fatal("no connections lost at takeover")
	}
	if st.Requests[ClassReset] == 0 {
		t.Fatal("no requests classified reset at takeover")
	}
	if st.Requests[ClassOK] == 0 {
		t.Fatal("no successful requests at all")
	}
	if !okAfter(e.Completions(), st.GapEnd) {
		t.Error("no ok completions after the reset gap — clients did not recover")
	}
	// One think and one redial timer per client: a closed-loop client never
	// has two requests out, through the reset storm included.
	if open := int64(st.Issued) - int64(completed(st)); open > 200 {
		t.Errorf("%d requests in flight for 200 closed-loop clients", open)
	}
	// Goodput recovery: the last full 100ms before Stop is all-ok again.
	var last [NumClasses]int
	for _, c := range e.Completions() {
		if !c.At.Before(stopAt.Add(-100*time.Millisecond)) && c.At.Before(stopAt) {
			last[c.Class]++
		}
	}
	if last[ClassOK] == 0 || last[ClassReset] != 0 {
		t.Errorf("final 100ms not recovered: %v", last)
	}
}

// TestOpenLoopOutageClassesBounded drives open-loop traffic through a full
// NIC outage with no takeover, longer than the flow layer's ≈ 2.5 s retry
// budget: requests must terminate as timeouts (or late stale responses),
// never hang, and the ok-gap must span the outage.
func TestOpenLoopOutageClassesBounded(t *testing.T) {
	r := newRig(t, 4)
	e, err := New(r.client, Config{
		Clients: 50, Mode: Open, RPS: 200, Target: r.target,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	r.s.RunFor(2 * time.Second)
	e.ResetStats()
	r.s.RunFor(time.Second)

	nic := r.server.NICs()[0]
	nic.SetUp(false)
	r.s.RunFor(4 * time.Second)
	nic.SetUp(true)
	r.s.RunFor(4 * time.Second)
	e.Stop()

	st := e.Stats()
	if st.Requests[ClassTimeout] == 0 {
		t.Fatalf("outage produced no timeouts: %+v", st.Requests)
	}
	if st.MaxOKGap < 3500*time.Millisecond {
		t.Errorf("MaxOKGap = %v, want ≥ most of the 4s outage", st.MaxOKGap)
	}
	if st.MaxOKGap > 6*time.Second {
		t.Errorf("MaxOKGap = %v, implausibly larger than the outage", st.MaxOKGap)
	}
	// Everything issued must eventually classify: no stuck requests.
	if pending := st.Issued - completed(st); pending != 0 {
		t.Errorf("%d requests unaccounted for after recovery", pending)
	}
}

func TestResetStatsClearsWindow(t *testing.T) {
	r := newRig(t, 5)
	e, err := New(r.client, Config{Clients: 10, Mode: Open, RPS: 100, Target: r.target})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	r.s.RunFor(2 * time.Second)
	if completed(e.Stats()) == 0 {
		t.Fatal("no traffic before reset")
	}
	e.ResetStats()
	if got := completed(e.Stats()); got != 0 {
		t.Fatalf("Total = %d immediately after ResetStats, want 0", got)
	}
	if len(e.Completions()) != 0 {
		t.Fatal("completion log survived ResetStats")
	}
	r.s.RunFor(2 * time.Second)
	e.Stop()
	st := e.Stats()
	if completed(st) == 0 {
		t.Fatal("no traffic after reset")
	}
	// The log holds exactly the new window: every completion counted, none
	// from before the new epoch.
	if n := uint64(len(e.Completions())); n != completed(st) {
		t.Errorf("log holds %d completions, stats count %d", n, completed(st))
	}
	if first := e.Completions()[0].At; first.Before(e.Epoch()) {
		t.Errorf("first completion at %v, before the epoch %v", first, e.Epoch())
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []Completion {
		r := newRig(t, 42)
		e, err := New(r.client, Config{Clients: 40, Mode: Open, RPS: 300, Target: r.target})
		if err != nil {
			t.Fatal(err)
		}
		e.Start()
		r.s.RunFor(5 * time.Second)
		e.Stop()
		return e.Completions()
	}
	c1, c2 := run(), run()
	if len(c1) == 0 {
		t.Fatal("no completions")
	}
	if !slices.Equal(c1, c2) {
		t.Fatalf("same seed diverged: %d and %d completions", len(c1), len(c2))
	}
}

// TestStopDisarmsGenerators: a stopped engine leaves nothing of its own on the
// simulator's queue — not the next arrival, not a staggered first dial, not a
// think-time continuation — where it used to leave each armed to fire into a
// stopped engine.
func TestStopDisarmsGenerators(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		run  time.Duration
	}{
		{"open loop", Config{Clients: 20, Mode: Open, RPS: 200}, 3 * time.Second},
		{"closed loop, staggered start", Config{Clients: 20, Mode: Closed}, 0},
		{"closed loop, thinking", Config{Clients: 20, Mode: Closed, ThinkTime: 500 * time.Millisecond}, 3 * time.Second},
	} {
		r := newRig(t, 7)
		tc.cfg.Target = r.target
		e, err := New(r.client, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.Start()
		r.s.RunFor(tc.run)
		// What the engine has armed: the one arrival timer, or one timer per
		// client that is not waiting for a response.
		armed := 1
		if st := e.Stats(); tc.cfg.Mode == Closed {
			armed = tc.cfg.Clients - int(st.Issued-completed(st))
		}
		before := r.s.Pending()
		e.Stop()
		if got := before - r.s.Pending(); got != armed {
			t.Errorf("%s: Stop took %d events off the queue, want the engine's %d", tc.name, got, armed)
		}
	}
}

// TestOpenLoopWindowDoesNotAllocate pins the traffic plane end to end: with
// connections established and pools warm, an open-loop window — arrival timer,
// request, segment, response, classification — allocates nothing.
func TestOpenLoopWindowDoesNotAllocate(t *testing.T) {
	r := newRig(t, 3)
	e, err := New(r.client, Config{Clients: 100, Mode: Open, RPS: 2000, Target: r.target})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	r.s.RunFor(12 * time.Second) // every client connected; the completion log has grown past what follows
	e.ResetStats()
	avg := testing.AllocsPerRun(100, func() { r.s.RunFor(100 * time.Millisecond) })
	if st := e.Stats(); avg != 0 || st.Requests[ClassOK] < 18000 || st.Requests[ClassOK] != completed(st) {
		t.Fatalf("a 100 ms window at 2000 rps allocates %.2f (%d ok of %d in 10.1 s), want 0", avg, st.Requests[ClassOK], completed(st))
	}
}

// TestReserveSizesTheLogOnce: after Reserve(w), an open-loop engine that runs
// for w fills the log it reserved without reallocating it; in closed loop
// Reserve leaves the log alone.
func TestReserveSizesTheLogOnce(t *testing.T) {
	const window = 5 * time.Second
	for seed := int64(1); seed <= 4; seed++ {
		r := newRig(t, seed)
		e, err := New(r.client, Config{Clients: 100, Mode: Open, RPS: 2000, Target: r.target})
		if err != nil {
			t.Fatal(err)
		}
		e.Start()
		r.s.RunFor(time.Second)
		e.ResetStats()
		e.Reserve(window)
		reserved := cap(e.Completions())
		if reserved < 10000 {
			t.Fatalf("seed %d: Reserve(%v) at 2000 rps left room for %d completions, want ≥ 10000", seed, window, reserved)
		}
		r.s.RunFor(window)
		if got := cap(e.Completions()); got != reserved || len(e.Completions()) < 9000 {
			t.Fatalf("seed %d: %d completions grew the reserved log from cap %d to %d", seed, len(e.Completions()), reserved, got)
		}
	}

	r := newRig(t, 1)
	e, err := New(r.client, Config{Clients: 20, Mode: Closed, ThinkTime: 100 * time.Millisecond, Target: r.target})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	r.s.RunFor(time.Second)
	e.ResetStats()
	before := cap(e.Completions())
	if e.Reserve(window); cap(e.Completions()) != before {
		t.Fatalf("closed-loop Reserve changed the log's cap from %d to %d", before, cap(e.Completions()))
	}
}

// TestReserveBeforeWarmUpSizesTheLogOnce is the availability trial's order:
// an open-loop engine reserved for its measured window before it starts logs
// its warm-up into that log, and ResetStats keeps the room, so neither the
// warm-up nor the window grows it.
func TestReserveBeforeWarmUpSizesTheLogOnce(t *testing.T) {
	const window = 5 * time.Second
	r := newRig(t, 2)
	e, err := New(r.client, Config{Clients: 100, Mode: Open, RPS: 2000, Target: r.target})
	if err != nil {
		t.Fatal(err)
	}
	e.Reserve(window)
	reserved := cap(e.Completions())
	e.Start()
	r.s.RunFor(time.Second)
	warm := len(e.Completions())
	e.ResetStats()
	r.s.RunFor(window)
	if got := cap(e.Completions()); got != reserved || warm < 1500 || len(e.Completions()) < 9000 {
		t.Fatalf("%d warm-up and %d window completions grew the log reserved before Start from cap %d to %d",
			warm, len(e.Completions()), reserved, got)
	}
}
