package main

import (
	"fmt"
	"net/netip"
	"runtime"
	"time"

	"wackamole/internal/core"
	"wackamole/internal/env"
	"wackamole/internal/flow"
	"wackamole/internal/gcs"
	"wackamole/internal/health"
	"wackamole/internal/invariant"
	"wackamole/internal/ipmgr"
	"wackamole/internal/metrics"
	"wackamole/internal/netsim"
	"wackamole/internal/obs"
	"wackamole/internal/placement"
	"wackamole/internal/sim"
	"wackamole/internal/wire"
)

// rigs.go holds the isolated rigs: each measures one layer's exported API on
// the smallest set-up that isolates it, with a fixed iteration count, as the
// minimum over three repeats. They run in the traced run only, under the
// workload where their layer does most of its work.

// rig is one isolated measurement: it adds its metrics to m. scale shrinks
// the iteration counts (tests).
type rig func(m metricSet, scale float64)

const rigRepeats = 3

// rigsFor returns the rigs that report under a workload.
func rigsFor(workload string) []rig {
	switch workload {
	case "failover_sweep":
		return []rig{rigSim, rigNetsim, rigEndpoint, rigWire, rigGCS}
	case "steady_traffic":
		return []rig{rigFlow}
	case "loaded_failover_observed":
		return []rig{rigObservers}
	case "membership_churn":
		return []rig{rigCore, rigPlacement}
	}
	return nil
}

// perCall runs body(n) rigRepeats times and returns the best host time per
// call in nanoseconds and the allocations per call of the last repeat.
// units is how many calls body(n) makes per n (a ping-pong moves two
// packets per iteration).
func perCall(n int, scale float64, units float64, body func(n int)) (ns, allocs float64) {
	n = int(float64(n) * scale)
	if n < 8 {
		n = 8
	}
	body(n / 8) // warm pools and caches
	best := time.Duration(0)
	var ms0, ms1 runtime.MemStats
	for r := 0; r < rigRepeats; r++ {
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		body(n)
		d := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		if r == 0 || d < best {
			best = d
		}
	}
	calls := float64(n) * units
	return float64(best.Nanoseconds()) / calls, float64(ms1.Mallocs-ms0.Mallocs) / calls
}

type nopRunnable struct{}

func (nopRunnable) Run() {}

// rigSim: the bare scheduler. A standing population of far-future events
// keeps the heap at a realistic depth.
func rigSim(m metricSet, scale float64) {
	newSim := func() *sim.Sim {
		s := sim.New(1)
		for i := 0; i < 256; i++ {
			s.After(time.Hour+time.Duration(i)*time.Second, func() {})
		}
		return s
	}
	nop := func() {}

	s := newSim()
	m["sim.after_fire_ns"], m["sim.after_allocs"] = perCall(200000, scale, 1, func(n int) {
		for i := 0; i < n; i++ {
			s.After(time.Microsecond, nop)
			s.Step()
		}
	})

	// A stopped timer stays in the heap until its deadline surfaces, so
	// the cost of a cancel includes that later pop: drain every 1024.
	s = newSim()
	m["sim.after_stop_ns"], _ = perCall(200000, scale, 1, func(n int) {
		for i := 0; i < n; i++ {
			s.After(100*time.Microsecond, nop).Stop()
			if i%1024 == 1023 {
				s.RunFor(time.Millisecond)
			}
		}
		s.RunFor(time.Millisecond)
	})

	s = newSim()
	var r nopRunnable
	m["sim.post_fire_ns"], m["sim.post_allocs"] = perCall(200000, scale, 1, func(n int) {
		for i := 0; i < n; i++ {
			s.Post(time.Microsecond, r)
			s.Step()
		}
	})
}

// lan is a two-host segment: a at 10.0.0.1, b at 10.0.0.2.
type lan struct {
	s          *sim.Sim
	nw         *netsim.Network
	a, b       *netsim.Host
	anic, bnic *netsim.NIC
}

func newLAN(seed int64) *lan {
	s := sim.New(seed)
	nw := netsim.New(s)
	seg := nw.NewSegment("lan", netsim.DefaultSegmentConfig())
	l := &lan{s: s, nw: nw, a: nw.NewHost("a"), b: nw.NewHost("b")}
	l.anic = l.a.AttachNIC(seg, "eth0", netip.MustParsePrefix("10.0.0.1/24"))
	l.bnic = l.b.AttachNIC(seg, "eth0", netip.MustParsePrefix("10.0.0.2/24"))
	return l
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("bench rig: %v", err))
	}
}

// rigNetsim: one UDP frame from a to b on each of the two send paths, and
// the timer wheel.
func rigNetsim(m metricSet, scale float64) {
	l := newLAN(2)
	got := 0
	_, err := l.b.BindUDP(netip.Addr{}, 7000, func(_, _ netip.AddrPort, _ []byte) { got++ })
	must(err)
	src := netip.AddrPortFrom(netip.Addr{}, 9000)
	dst := netip.AddrPortFrom(netip.MustParseAddr("10.0.0.2"), 7000)
	payload := make([]byte, 64)
	deliver := func(want int) {
		for got < want && l.s.Step() {
		}
		if got < want {
			panic("bench rig: frame lost on a clean LAN")
		}
	}
	must(l.a.SendUDP(src, dst, payload))
	deliver(1) // resolves ARP

	m["netsim.sendudp_frame_ns"], m["netsim.sendudp_allocs"] = perCall(100000, scale, 1, func(n int) {
		for i := 0; i < n; i++ {
			must(l.a.SendUDP(src, dst, payload))
			deliver(got + 1)
		}
	})
	m["netsim.sendudp_owned_frame_ns"], _ = perCall(100000, scale, 1, func(n int) {
		for i := 0; i < n; i++ {
			must(l.a.SendUDPOwned(src, dst, l.nw.GetBuf(64)))
			deliver(got + 1)
		}
	})

	// One timer armed and fired plus one armed and stopped per iteration —
	// flow arms an RTO per request and cancels nearly all of them.
	const tick = time.Millisecond
	wheel := netsim.NewTimerWheel(l.a, tick, 256)
	nop := func() {}
	m["netsim.wheel_timer_ns"], _ = perCall(100000, scale, 2, func(n int) {
		for i := 0; i < n; i++ {
			wheel.Schedule(tick, nop)
			wheel.Schedule(8*tick, nop).Stop()
			l.s.RunFor(2 * tick)
		}
	})
}

// rigEndpoint: the netsim.Endpoint → env.PacketConn adapter the gcs daemons
// sit on. Two endpoints ping-pong one packet.
func rigEndpoint(m metricSet, scale float64) {
	l := newLAN(3)
	aep, err := l.a.OpenEndpoint(l.anic, 4803)
	must(err)
	bep, err := l.b.OpenEndpoint(l.bnic, 4803)
	must(err)
	aconn, bconn := aep.Env(nil).Conn, bep.Env(nil).Conn
	got := 0
	aconn.SetHandler(func(env.Addr, []byte) { got++ })
	bconn.SetHandler(func(from env.Addr, p []byte) { must(bconn.SendTo(from, p)) })
	to := bconn.LocalAddr()
	payload := make([]byte, 64)
	pingPong := func() {
		want := got + 1
		must(aconn.SendTo(to, payload))
		for got < want && l.s.Step() {
		}
		if got < want {
			panic("bench rig: endpoint packet lost")
		}
	}
	pingPong() // resolves ARP both ways
	m["env.endpoint_packet_ns"], m["env.endpoint_packet_allocs"] = perCall(50000, scale, 2, func(n int) {
		for i := 0; i < n; i++ {
			pingPong()
		}
	})
}

// rigWire: a token-shaped message — the gcs header, a ring id, two sequence
// numbers, a retransmission list and a 12-member ring list.
func rigWire(m metricSet, scale float64) {
	members := make([]string, 12)
	for i := range members {
		members[i] = fmt.Sprintf("10.0.0.%d:4803", 10+i)
	}
	rtr := []uint64{41, 42}
	encode := func() []byte {
		w := wire.NewWriter(128)
		w.U8('W')
		w.U8('K')
		w.U8(2)
		w.U8(3)
		w.U64(0)
		w.U32(0)
		w.String(members[0])
		w.U64(7)
		w.U64(123456)
		w.U64(654321)
		w.U64List(rtr)
		w.StringList(members)
		return w.Bytes()
	}
	var sink int
	m["wire.token12_encode_ns"], _ = perCall(200000, scale, 1, func(n int) {
		for i := 0; i < n; i++ {
			sink += len(encode())
		}
	})
	buf := encode()
	m["wire.token12_decode_ns"], m["wire.token12_decode_allocs"] = perCall(200000, scale, 1, func(n int) {
		for i := 0; i < n; i++ {
			r := wire.NewReader(buf)
			r.U8()
			r.U8()
			r.U8()
			r.U8()
			r.U64()
			r.U32()
			sink += len(r.String())
			r.U64()
			r.U64()
			r.U64()
			sink += len(r.U64List())
			sink += len(r.StringList())
			must(r.Done())
		}
	})
	_ = sink
}

// ring is a bare gcs ring: n daemons on one LAN, no engine on top.
type ring struct {
	s       *sim.Sim
	daemons []*gcs.Daemon
}

func newRing(seed int64, n int) *ring {
	s := sim.New(seed)
	nw := netsim.New(s)
	seg := nw.NewSegment("lan", netsim.DefaultSegmentConfig())
	r := &ring{s: s}
	for i := 0; i < n; i++ {
		h := nw.NewHost(fmt.Sprintf("n%02d", i))
		nic := h.AttachNIC(seg, "eth0", netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, 0, byte(10 + i)}), 24))
		ep, err := h.OpenEndpoint(nic, 4803)
		must(err)
		d, err := gcs.NewDaemon(ep.Env(nil), gcs.TunedConfig())
		must(err)
		d.Start()
		r.daemons = append(r.daemons, d)
	}
	s.RunFor(5 * time.Second)
	for _, d := range r.daemons {
		if _, members, ok := d.Ring(); !ok || len(members) != n {
			panic("bench rig: gcs ring did not form")
		}
	}
	return r
}

func (r *ring) stats() gcs.Stats {
	var st gcs.Stats
	for _, d := range r.daemons {
		st.Merge(d.Stats())
	}
	return st
}

// rigGCS: the idle ring's cost per token pass at N=5 and N=12, and the cost
// of one Agreed message on a saturated N=5 ring.
func rigGCS(m metricSet, scale float64) {
	// idle runs the ring for a fixed simulated time and divides by the
	// token passes that happened in it.
	idle := func(n int, simSeconds float64) (ns, allocs float64) {
		r := newRing(int64(n), n)
		d := time.Duration(simSeconds * scale * float64(time.Second))
		if d < time.Second {
			d = time.Second
		}
		best := time.Duration(0)
		var tokens uint64
		var ms0, ms1 runtime.MemStats
		for rep := 0; rep < rigRepeats; rep++ {
			before := r.stats().TokensForwarded
			runtime.ReadMemStats(&ms0)
			t0 := time.Now()
			r.s.RunFor(d)
			el := time.Since(t0)
			runtime.ReadMemStats(&ms1)
			tokens = r.stats().TokensForwarded - before
			if rep == 0 || el < best {
				best = el
			}
		}
		if tokens == 0 {
			panic("bench rig: idle ring passed no token")
		}
		return float64(best.Nanoseconds()) / float64(tokens), float64(ms1.Mallocs-ms0.Mallocs) / float64(tokens)
	}
	m["gcs.idle_rotation_ns_n5"], _ = idle(5, 30)
	m["gcs.idle_rotation_ns_n12"], m["gcs.idle_rotation_allocs_n12"] = idle(12, 30)

	r := newRing(55, 5)
	sess, err := r.daemons[0].Connect("bench")
	must(err)
	must(sess.Join("bench"))
	delivered := 0
	sess.SetMessageHandler(func(gcs.GroupMember, string, []byte) { delivered++ })
	r.s.RunFor(5 * time.Second)
	payload := make([]byte, 256)
	m["gcs.agreed_msg_ns_n5"], _ = perCall(20000, scale, 1, func(n int) {
		want := delivered + n
		for i := 0; i < n; i++ {
			for sess.Multicast("bench", payload) != nil {
				r.s.RunFor(10 * time.Millisecond) // drain backpressure
			}
		}
		for delivered < want {
			r.s.RunFor(100 * time.Millisecond)
		}
	})
}

// engines is N core engines joined by a loop-back Cast: every cast is queued
// and delivered to all engines in order, the Agreed delivery the engine
// assumes, with no gcs underneath.
type engines struct {
	ids     []core.MemberID
	engines []*core.Engine
	queue   []struct {
		from    core.MemberID
		payload []byte
	}
}

func newEngines(n, vips int) *engines {
	groups := make([]core.VIPGroup, vips)
	for i := range groups {
		groups[i] = core.VIPGroup{
			Name:  fmt.Sprintf("vip%04d", i),
			Addrs: []netip.Addr{netip.AddrFrom4([4]byte{10, 1, byte(i / 250), byte(1 + i%250)})},
		}
	}
	clock := sim.New(1)
	e := &engines{}
	for i := 0; i < n; i++ {
		id := core.MemberID(fmt.Sprintf("m%02d", i))
		eng, err := core.NewEngine(core.Config{Groups: groups, StartMature: true}, core.Deps{
			Self: id,
			Cast: func(p []byte) error {
				e.queue = append(e.queue, struct {
					from    core.MemberID
					payload []byte
				}{id, p})
				return nil
			},
			IPs:   ipmgr.New(&ipmgr.FakeBackend{}),
			Clock: clock,
		})
		must(err)
		eng.Start()
		e.ids = append(e.ids, id)
		e.engines = append(e.engines, eng)
	}
	return e
}

// reallocate installs one view on every engine and delivers casts until
// none is left: GATHER, the state exchange and the reallocation.
func (e *engines) reallocate() {
	view := core.View{ID: "v1", Members: e.ids}
	for _, eng := range e.engines {
		eng.OnView(view)
	}
	for len(e.queue) > 0 {
		msg := e.queue[0]
		e.queue = e.queue[1:]
		for _, eng := range e.engines {
			eng.OnMessage(msg.from, msg.payload)
		}
	}
	for _, eng := range e.engines {
		if st := eng.Snapshot(); st.State != core.StateRun {
			panic(fmt.Sprintf("bench rig: engine settled in state %v", st.State))
		}
	}
}

// rigCore: five engines take one view from nothing to a settled
// allocation, at the paper's V=10 and at V=1000.
func rigCore(m metricSet, scale float64) {
	measure := func(vips, n int) float64 {
		n = int(float64(n) * scale)
		if n < 2 {
			n = 2
		}
		best := time.Duration(0)
		for rep := 0; rep < rigRepeats; rep++ {
			sets := make([]*engines, n)
			for i := range sets {
				sets[i] = newEngines(5, vips)
			}
			t0 := time.Now()
			for _, e := range sets {
				e.reallocate()
			}
			if d := time.Since(t0); rep == 0 || d < best {
				best = d
			}
		}
		return float64(best.Nanoseconds()) / 1e3 / float64(n)
	}
	m["core.reallocate_us_v10"] = measure(10, 400)
	m["core.reallocate_us_v1000"] = measure(1000, 8)
}

// rigPlacement: one balance decision over 100 groups and 12 members from a
// balanced table, for both policies.
func rigPlacement(m metricSet, scale float64) {
	const vips, members = 100, 12
	in := placement.Input{Prefers: func(string, string) bool { return false }}
	owner := map[string]string{}
	for i := 0; i < members; i++ {
		in.Members = append(in.Members, fmt.Sprintf("m%02d", i))
	}
	for i := 0; i < vips; i++ {
		g := fmt.Sprintf("vip%03d", i)
		in.Groups = append(in.Groups, g)
		owner[g] = in.Members[i%members]
	}
	in.Owner = func(g string) string { return owner[g] }
	for _, name := range placement.Names() {
		p, err := placement.New(name)
		must(err)
		dst := p.Balance(in, nil)
		ns, _ := perCall(20000, scale, 1, func(n int) {
			for i := 0; i < n; i++ {
				dst = p.Balance(in, dst)
			}
		})
		switch name {
		case placement.NameLeastLoaded:
			m["placement.least_loaded_ns_v100_n12"] = ns
		case placement.NameMinimal:
			m["placement.minimal_ns_v100_n12"] = ns
		}
	}
}

// rigFlow: one request/response on an established connection, and one
// connection set-up, on a two-host LAN.
func rigFlow(m metricSet, scale float64) {
	l := newLAN(4)
	_, err := flow.NewServer(l.b, 8090, flow.ServerConfig{})
	must(err)
	c, err := flow.NewClient(l.a, 9100, flow.ClientConfig{})
	must(err)
	target := netip.AddrPortFrom(netip.MustParseAddr("10.0.0.2"), 8090)
	dial := func() *flow.Conn {
		var conn *flow.Conn
		c.Dial(target, func(cn *flow.Conn, err error) {
			must(err)
			conn = cn
		})
		for conn == nil && l.s.Step() {
		}
		if conn == nil || !conn.Established() {
			panic("bench rig: flow dial did not complete")
		}
		return conn
	}
	conn := dial() // resolves ARP
	payload := make([]byte, 64)
	done := false
	cb := func(_ []byte, _ time.Duration, err error) {
		must(err)
		done = true
	}
	m["flow.round_trip_ns"], m["flow.round_trip_allocs"] = perCall(100000, scale, 1, func(n int) {
		for i := 0; i < n; i++ {
			done = false
			conn.Request(payload, cb)
			for !done && l.s.Step() {
			}
			if !done {
				panic("bench rig: flow request did not complete")
			}
		}
	})
	m["flow.dial_ns"], _ = perCall(50000, scale, 1, func(n int) {
		for i := 0; i < n; i++ {
			dial().Close()
		}
	})
}

// rigObservers: the per-event cost of each observer plane's hot call.
func rigObservers(m metricSet, scale float64) {
	now := sim.Epoch
	clock := func() time.Time { return now }

	mon := invariant.New(invariant.Config{Nodes: 4})
	ringID := gcs.RingID{Coord: "10.0.0.10:4803", Epoch: 3}
	var seq uint64
	m["invariant.event_ns"], _ = perCall(200000, scale, 4, func(n int) {
		for i := 0; i < n; i++ {
			seq++
			for node := 0; node < 4; node++ {
				mon.OnDelivery(node, ringID, seq, ringID.Coord)
			}
		}
	})
	if v := mon.Violation(); v != nil {
		panic(fmt.Sprintf("bench rig: monitor tripped: %v", v))
	}

	tr := obs.New(0, clock)
	ev := obs.Event{Source: obs.SourceGCS, Kind: obs.KindGatherEnter, Node: "10.0.0.10:4803", Detail: "rig"}
	m["obs.trace_event_ns"], _ = perCall(500000, scale, 1, func(n int) {
		for i := 0; i < n; i++ {
			tr.Emit(ev)
		}
	})

	hist := metrics.New().Histogram("bench_rig_seconds", "rig")
	m["metrics.observe_ns"], _ = perCall(500000, scale, 1, func(n int) {
		for i := 0; i < n; i++ {
			hist.Observe(float64(i%1000) * 1e-6)
		}
	})

	hm := health.NewMonitor(health.Options{Node: "a", Metrics: metrics.New()})
	hm.SetPeers(1, []string{"b"}, now)
	m["health.observe_ns"], _ = perCall(500000, scale, 1, func(n int) {
		for i := 0; i < n; i++ {
			now = now.Add(100 * time.Millisecond)
			hm.Observe("b", now)
		}
	})

	frame := health.Frame{
		Node: "10.0.0.10:4803", Seq: 42, View: "10.0.0.10:4803/3", State: "run", Mature: true, Generation: 3,
		Members: []string{"10.0.0.10:4803", "10.0.0.11:4803", "10.0.0.12:4803", "10.0.0.13:4803"},
		Owned:   []string{"vip00", "vip04", "vip08"},
		Peers: []health.PeerStatus{
			{Peer: "10.0.0.11:4803", PhiMilli: 312, LastHeardNS: 150_000_000, Samples: 64},
			{Peer: "10.0.0.12:4803", PhiMilli: 280, LastHeardNS: 90_000_000, Samples: 64},
			{Peer: "10.0.0.13:4803", PhiMilli: 12400, LastHeardNS: 900_000_000, Samples: 64, Suspected: true},
		},
		Installs: 5, Reconfigs: 4, Delivered: 991,
	}
	buf := health.AppendFrame(nil, &frame)
	m["health.frame_encode_ns"], _ = perCall(500000, scale, 1, func(n int) {
		for i := 0; i < n; i++ {
			buf = health.AppendFrame(buf[:0], &frame)
		}
	})
}
