package wackamole_test

// Benchmark harness: one benchmark per grid point of every table and figure
// of the paper's evaluation (plus the §5.2 router claim, §7 baselines and the
// §3.4/§5.1 ablations). Each iteration runs one independently seeded
// simulation trial; the custom metric "sim-sec/trial" is the simulated
// quantity the experiment reports (counts are encoded as whole seconds, as
// in the tables), while ns/op measures how fast the simulator reproduces it.
//
//	go test -bench=. -benchmem
//
// cmd/wacksim renders the same experiments as markdown tables.

import (
	"net/netip"
	"testing"
	"time"

	"wackamole/internal/experiment"
	"wackamole/internal/experiment/runner"
	"wackamole/internal/flow"
	"wackamole/internal/netsim"
	"wackamole/internal/sim"
)

// reportTrials runs one seeded trial per iteration and reports the mean of
// the simulated measurement under unit.
func reportTrials(b *testing.B, unit string, trial runner.Trial) {
	b.Helper()
	var total time.Duration
	for i := 0; i < b.N; i++ {
		s, err := trial(int64(1000 + i*7919))
		if err != nil {
			b.Fatal(err)
		}
		total += s.Value
	}
	b.ReportMetric(total.Seconds()/float64(b.N), unit)
}

// BenchmarkExperiment runs every grid point of every registered experiment
// as BenchmarkExperiment/<name>/<point> — the same registry `wacksim
// -experiment all` iterates, so an experiment added there is benchmarked
// here without another list to update.
func BenchmarkExperiment(b *testing.B) {
	for _, e := range experiment.Experiments {
		b.Run(e.Name, func(b *testing.B) {
			for _, p := range e.Points(experiment.Grid{}) {
				b.Run(p.Label, func(b *testing.B) { reportTrials(b, "sim-sec/trial", p.Run) })
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Traffic-subsystem microbenchmarks: these measure the simulator itself
// (events and flow round trips per wall-clock second), not a paper quantity —
// they bound how large a wackload population the machine can drive.

// flowRig is a minimal two-host LAN for flow traffic: a client at 10.0.0.1
// and a server at 10.0.0.2 answering flow requests on port 8090.
type flowRig struct {
	s      *sim.Sim
	nw     *netsim.Network
	client *netsim.Host
	server *netsim.Host
	target netip.AddrPort
}

func newFlowRig(seed int64) *flowRig {
	s := sim.New(seed)
	nw := netsim.New(s)
	seg := nw.NewSegment("lan", netsim.DefaultSegmentConfig())
	ch := nw.NewHost("client")
	ch.AttachNIC(seg, "eth0", netip.MustParsePrefix("10.0.0.1/24"))
	sh := nw.NewHost("server")
	sh.AttachNIC(seg, "eth0", netip.MustParsePrefix("10.0.0.2/24"))
	return &flowRig{
		s: s, nw: nw, client: ch, server: sh,
		target: netip.AddrPortFrom(netip.MustParseAddr("10.0.0.2"), 8090),
	}
}

// dialFlow opens one flow connection and drives the sim until the handshake
// completes.
func (r *flowRig) dialFlow(tb testing.TB, c *flow.Client) *flow.Conn {
	tb.Helper()
	var conn *flow.Conn
	var dialErr error
	c.Dial(r.target, func(cn *flow.Conn, err error) { conn, dialErr = cn, err })
	r.s.RunFor(time.Second)
	if dialErr != nil {
		tb.Fatalf("dial: %v", dialErr)
	}
	if conn == nil || !conn.Established() {
		tb.Fatal("dial returned no established connection")
	}
	return conn
}

// BenchmarkFlowRoundTrip measures one complete request/response cycle on an
// established flow connection, simulator included (segment delivery both
// ways, RTO timer arm and cancel). ns/op is the wall cost of one simulated
// round trip; allocs/op must stay at 0 in steady state.
func BenchmarkFlowRoundTrip(b *testing.B) {
	r := newFlowRig(1)
	if _, err := flow.NewServer(r.server, 8090, flow.ServerConfig{}); err != nil {
		b.Fatal(err)
	}
	c, err := flow.NewClient(r.client, 9100, flow.ClientConfig{})
	if err != nil {
		b.Fatal(err)
	}
	conn := r.dialFlow(b, c)
	payload := []byte("GET /")
	done := false
	cb := func(resp []byte, rtt time.Duration, err error) {
		if err != nil {
			b.Fatal(err)
		}
		done = true
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done = false
		conn.Request(payload, cb)
		r.s.RunFor(2 * time.Millisecond)
		if !done {
			b.Fatal("request did not complete within 2ms of simulated time")
		}
	}
}

// BenchmarkNetsimEventRate measures raw simulator throughput in processed
// events per wall-clock second: 64 self-perpetuating UDP ping-pong pairs keep
// the event queue saturated while the benchmark advances virtual time.
func BenchmarkNetsimEventRate(b *testing.B) {
	r := newFlowRig(2)
	dst := netip.AddrPortFrom(netip.MustParseAddr("10.0.0.2"), 7000)
	if _, err := r.server.BindUDP(netip.Addr{}, 7000, func(src, d netip.AddrPort, payload []byte) {
		_ = r.server.SendUDP(d, src, payload)
	}); err != nil {
		b.Fatal(err)
	}
	ping := []byte("p")
	const pairs = 64
	for i := 0; i < pairs; i++ {
		src := netip.AddrPortFrom(netip.Addr{}, uint16(9200+i))
		if _, err := r.client.BindUDP(netip.Addr{}, src.Port(), func(_, _ netip.AddrPort, _ []byte) {
			_ = r.client.SendUDP(src, dst, ping)
		}); err != nil {
			b.Fatal(err)
		}
		_ = r.client.SendUDP(src, dst, ping)
	}
	r.s.RunFor(100 * time.Millisecond) // resolve ARP, reach steady state
	b.ResetTimer()
	start := r.s.Fired()
	for i := 0; i < b.N; i++ {
		r.s.RunFor(time.Millisecond)
	}
	b.StopTimer()
	fired := r.s.Fired() - start
	if fired == 0 {
		b.Fatal("no events processed — the ping-pong load died")
	}
	b.ReportMetric(float64(fired)/b.Elapsed().Seconds(), "events/sec")
}

// TestFlowSendPathZeroAlloc pins the flow send path's steady-state allocation
// behaviour: once the buffer, pending-record, timer and event pools are warm,
// a full request/response cycle — segment encode, two deliveries, RTO arm and
// cancel, callback — must not allocate at all. A regression here multiplies
// directly into wackload's per-request cost at -clients 1000.
func TestFlowSendPathZeroAlloc(t *testing.T) {
	r := newFlowRig(3)
	if _, err := flow.NewServer(r.server, 8090, flow.ServerConfig{}); err != nil {
		t.Fatal(err)
	}
	c, err := flow.NewClient(r.client, 9100, flow.ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	conn := r.dialFlow(t, c)
	payload := []byte("GET /")
	var reqErr error
	done := false
	cb := func(resp []byte, rtt time.Duration, err error) {
		reqErr = err
		done = true
	}
	step := func() {
		done = false
		conn.Request(payload, cb)
		r.s.RunFor(2 * time.Millisecond)
		if reqErr != nil || !done {
			t.Fatalf("request failed: err=%v done=%v", reqErr, done)
		}
	}
	for i := 0; i < 64; i++ {
		step() // warm every pool on the path
	}
	if avg := testing.AllocsPerRun(200, step); avg > 0 {
		t.Errorf("flow round trip allocates %.2f objects/op in steady state, want 0", avg)
	}
}
