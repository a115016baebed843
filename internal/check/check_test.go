package check

import (
	"bytes"
	"encoding/json"
	"net/netip"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"wackamole"
	"wackamole/internal/core"
	"wackamole/internal/gcs"
	"wackamole/internal/invariant"
	"wackamole/internal/ipmgr"
	"wackamole/internal/metrics"
	"wackamole/internal/obs"
	"wackamole/internal/sim"
)

func TestGenerateIsDeterministic(t *testing.T) {
	a := Generate(7, GenConfig{Servers: 5, VIPs: 10, Steps: 12})
	b := Generate(7, GenConfig{Servers: 5, VIPs: 10, Steps: 12})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different schedules:\n%v\n%v", a, b)
	}
	c := Generate(8, GenConfig{Servers: 5, VIPs: 10, Steps: 12})
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatalf("different seeds produced identical event lists")
	}
	if len(a.Events) != 12 {
		t.Fatalf("wanted 12 events, got %d", len(a.Events))
	}
	for i := 1; i < len(a.Events); i++ {
		if a.Events[i].At <= a.Events[i-1].At {
			t.Fatalf("events out of order: %v then %v", a.Events[i-1], a.Events[i])
		}
	}
}

// At 64 servers 1<<n overflows int64: the partition mask must still split
// the cluster into two non-empty sides, and a 65th server has no bit.
func TestGeneratePartitionsAt64Servers(t *testing.T) {
	partitions := 0
	for seed := int64(1); seed <= 8; seed++ {
		for _, ev := range Generate(seed, GenConfig{Servers: 64, VIPs: 10, Steps: 24}).Events {
			if ev.Op != opPartition {
				continue
			}
			partitions++
			if ev.Mask == 0 || ev.Mask == ^uint64(0) {
				t.Fatalf("seed %d: one-sided partition %v", seed, ev)
			}
		}
	}
	if partitions == 0 {
		t.Fatal("no partition drawn in 8 seeds of 24 steps")
	}
	if _, err := Run(Schedule{Servers: MaxServers + 1, VIPs: 1}, Options{}); err == nil {
		t.Fatalf("Run accepted %d servers", MaxServers+1)
	}
}

func TestScheduleJSONRoundTrip(t *testing.T) {
	s := Generate(3, GenConfig{Servers: 4, VIPs: 6, Steps: 10})
	// Generate never draws crash or join; they travel all the same.
	end := s.Events[len(s.Events)-1].At
	s.Events = append(s.Events,
		Event{At: end + time.Second, Op: opCrash, Server: 2},
		Event{At: end + 2*time.Second, Op: opJoin, Server: 1})
	blob, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Schedule
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Fatalf("round trip changed the schedule:\n%v\n%v", s, back)
	}
}

func TestCleanScheduleSatisfiesOracles(t *testing.T) {
	reg := metrics.New()
	s := Generate(1, GenConfig{Servers: 5, VIPs: 10, Steps: 8})
	rep, err := Run(s, Options{Metrics: reg, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violation != nil {
		t.Fatalf("clean schedule reported violation: %v", rep.Violation)
	}
	if !slices.ContainsFunc(rep.Trace, func(e obs.Event) bool { return e.Kind == obs.KindInstall }) {
		t.Fatal("the run installed no membership: the oracles observed nothing")
	}
	snap := reg.Snapshot()
	if f := snap.Family("check_schedules_total"); f == nil || f.Series[0].Value != 1 {
		t.Fatalf("check_schedules_total not recorded: %+v", f)
	}
	if f := snap.Family("check_steps_total"); f == nil || f.Series[0].Value != float64(len(s.Events)) {
		t.Fatalf("check_steps_total not recorded: %+v", f)
	}
	// The traffic-subsystem families must be pre-registered even though a
	// checker schedule drives no flow traffic: wackcheck's counter report
	// flattens the whole registry, and -mutate comparisons depend on the
	// family set being identical across runs.
	for _, name := range []string{
		"flow_conns_opened_total", "flow_conns_reset_total", "flow_retransmits_total",
		"flow_conns_timeout_total", "flow_accepts_total", "flow_responses_total",
		"flow_rsts_sent_total", "load_requests_total",
	} {
		if snap.Family(name) == nil {
			t.Errorf("traffic counter family %q not pre-registered", name)
		}
	}
}

// TestCrashLeaveJoinSatisfiesOracles runs the two ops Generate never draws
// under every oracle: one server's host crashes for good, another drains and
// is re-admitted, and the rejoined server takes addresses again.
func TestCrashLeaveJoinSatisfiesOracles(t *testing.T) {
	s := Schedule{
		Seed: 9, Servers: 4, VIPs: 8,
		Events: []Event{
			{At: 1 * time.Second, Op: opCrash, Server: 1},
			{At: 6 * time.Second, Op: opLeave, Server: 2},
			{At: 10 * time.Second, Op: opJoin, Server: 2},
		},
	}
	rep, err := Run(s, Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violation != nil {
		t.Fatalf("crash/leave/join schedule reported violation: %v", rep.Violation)
	}
	if !slices.ContainsFunc(rep.Trace, func(e obs.Event) bool { return e.Kind == obs.KindFault && e.Detail == "crash" }) {
		t.Fatal("no host crashed")
	}
	// The drain releases server 2's addresses; only a working join lets it
	// acquire any afterwards.
	node := wackamole.ServerAddr(2).String() + ":"
	var released, acquired time.Time
	for _, e := range rep.Trace {
		if !strings.HasPrefix(e.Node, node) {
			continue
		}
		switch e.Kind {
		case obs.KindRelease:
			released = e.At
		case obs.KindAcquire:
			acquired = e.At
		}
	}
	if released.IsZero() || !acquired.After(released) {
		t.Fatalf("server 2 released at %v and last acquired at %v: the join did not re-admit it", released, acquired)
	}
}

func TestRunIsDeterministic(t *testing.T) {
	s := Generate(5, GenConfig{Servers: 4, VIPs: 6, Steps: 6})
	a, err := Run(s, Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(s, Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Elapsed != b.Elapsed {
		t.Fatalf("two runs of the same schedule diverged: %+v vs %+v", a, b)
	}
	if len(a.Trace) != len(b.Trace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a.Trace), len(b.Trace))
	}
	for i := range a.Trace {
		if a.Trace[i].String() != b.Trace[i].String() {
			t.Fatalf("trace diverges at event %d: %v vs %v", i, a.Trace[i], b.Trace[i])
		}
	}
}

// TestMutationCaughtShrunkAndReplayed is the checker's acceptance self-test:
// a deliberately broken release rule (server 1 keeps every address its
// engine releases) must be caught by the exactly-once oracle, shrunk to a
// minimal schedule of at most 6 events, and the emitted artifact must
// replay to the identical violation.
func TestMutationCaughtShrunkAndReplayed(t *testing.T) {
	reg := metrics.New()
	// Noise events surround the one sequence that matters: failing and
	// restoring the mutated server forces it to release conflicting
	// addresses on merge, which the mutation silently skips.
	s := Schedule{
		Seed: 42, Servers: 3, VIPs: 6,
		Events: []Event{
			{At: 1 * time.Second, Op: opJitter, Server: 2},
			{At: 2 * time.Second, Op: opFail, Server: 1},
			{At: 4 * time.Second, Op: opSever, Server: 0},
			{At: 9 * time.Second, Op: opRestore, Server: 1},
			{At: 11 * time.Second, Op: opSever, Server: 2},
			{At: 13 * time.Second, Op: opHeal},
		},
	}
	opts := Options{Mutation: keepOnRelease{server: 1}, Metrics: reg}

	rep, err := Run(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violation == nil {
		t.Fatalf("broken release rule went undetected")
	}
	if rep.Violation.Oracle != "exactly-once" && rep.Violation.Oracle != "foreign-claim" {
		t.Fatalf("unexpected oracle %s: %v", rep.Violation.Oracle, rep.Violation)
	}

	minimal, minRep, iters, err := Shrink(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	if minRep.Violation == nil {
		t.Fatalf("shrunk schedule no longer violates")
	}
	if len(minimal.Events) > 6 {
		t.Fatalf("shrink left %d events (want <= 6): %v", len(minimal.Events), minimal.Events)
	}
	if iters == 0 {
		t.Fatalf("shrink reported zero iterations")
	}
	snap := reg.Snapshot()
	if f := snap.Family("check_shrink_iterations_total"); f == nil || f.Series[0].Value != float64(iters) {
		t.Fatalf("check_shrink_iterations_total not recorded: %+v", f)
	}
	if f := snap.Family("check_violations_total"); f == nil || f.Series[0].Value == 0 {
		t.Fatalf("check_violations_total not recorded: %+v", f)
	}

	art := NewArtifact(minRep, opts, iters)
	var buf bytes.Buffer
	if err := WriteArtifact(&buf, art); err != nil {
		t.Fatal(err)
	}
	back, err := ReadArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replayRep, match, err := Replay(back)
	if err != nil {
		t.Fatal(err)
	}
	if !match {
		t.Fatalf("replay mismatch: artifact %v, replay %v", back.Violation, replayRep.Violation)
	}
}

// The checker's monitor is bounded: at CI's schedule lengths nothing may be
// forgotten, so those verdicts are exact, while a long schedule outgrows the
// bounds and must say so in Report.Dropped rather than forget silently.
func TestMonitorBoundsAtScheduleLength(t *testing.T) {
	gen := GenConfig{Servers: 5, VIPs: 10, Steps: 24}
	schedules := []Schedule{}
	for seed := int64(1); seed <= 4; seed++ {
		schedules = append(schedules, Generate(seed, gen))
	}
	gray := gen
	gray.Steps, gray.Gray = 16, true
	schedules = append(schedules, Generate(1, gray))
	for _, s := range schedules {
		rep, err := Run(s, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Violation != nil || rep.Dropped != 0 {
			t.Fatalf("seed %d, %d steps: violation %v, %d entries dropped; want a clean, exact verdict",
				s.Seed, len(s.Events), rep.Violation, rep.Dropped)
		}
	}

	gen.Steps = 96
	rep, err := Run(Generate(11, gen), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violation != nil || rep.Dropped == 0 {
		t.Fatalf("seed 11, 96 steps: violation %v, %d entries dropped; want clean with a positive count",
			rep.Violation, rep.Dropped)
	}
}

// checkerMonitor builds the oracle state machine the way Run does.
func checkerMonitor(nodes int) *invariant.Monitor {
	return invariant.New(invariant.Config{
		Nodes: nodes, Now: func() time.Duration { return 0 },
	})
}

// engineNode is a bare engine behind an idle daemon: enough for
// Monitor.Attach, so a test installs views with Engine.OnView and the
// monitor sees them through its view hook, as it does under Run.
type engineNode struct {
	e *core.Engine
	d *gcs.Daemon
}

func (n engineNode) Engine() *core.Engine  { return n.e }
func (n engineNode) Daemon() *gcs.Daemon   { return n.d }
func (n engineNode) Member() core.MemberID { return "a" }

// attachedEngines attaches one started engine per monitor slot; every
// engine is member "a", so it installs any view that lists "a".
func attachedEngines(t *testing.T, o *invariant.Monitor, nodes int) []*core.Engine {
	t.Helper()
	cfg := core.Config{Groups: []core.VIPGroup{{
		Name: "vip00", Addrs: []netip.Addr{netip.AddrFrom4([4]byte{10, 0, 1, 1})},
	}}}
	engines := make([]*core.Engine, nodes)
	for i := range engines {
		e, err := core.NewEngine(cfg, core.Deps{
			Self:  "a",
			Cast:  func([]byte) error { return nil },
			IPs:   ipmgr.New(&ipmgr.FakeBackend{}),
			Clock: sim.New(1),
		})
		if err != nil {
			t.Fatal(err)
		}
		o.Attach(i, engineNode{e: e, d: &gcs.Daemon{}})
		e.Start()
		engines[i] = e
	}
	return engines
}

// TestOracleViewOrderDetectsDivergence feeds the oracle state machine two
// engines that disagree on a view's membership.
func TestOracleViewOrderDetectsDivergence(t *testing.T) {
	o := checkerMonitor(2)
	e := attachedEngines(t, o, 2)
	e[0].OnView(core.View{ID: "v1", Members: []core.MemberID{"a", "b"}})
	e[1].OnView(core.View{ID: "v1", Members: []core.MemberID{"a"}})
	if v := o.Violation(); v == nil || v.Oracle != "view-order" {
		t.Fatalf("diverging member lists not caught: %v", v)
	}
}

func TestOracleViewOrderDetectsReordering(t *testing.T) {
	o := checkerMonitor(2)
	e := attachedEngines(t, o, 2)
	e[0].OnView(core.View{ID: "v1", Members: []core.MemberID{"a"}})
	e[0].OnView(core.View{ID: "v2", Members: []core.MemberID{"a", "b"}})
	e[1].OnView(core.View{ID: "v2", Members: []core.MemberID{"a", "b"}})
	e[1].OnView(core.View{ID: "v1", Members: []core.MemberID{"a"}})
	if v := o.Violation(); v == nil || v.Oracle != "view-order" {
		t.Fatalf("opposite install orders not caught: %v", v)
	}
}

func TestOracleDeliveryOrderDetectsConflicts(t *testing.T) {
	ring := gcs.RingID{Coord: "d0", Epoch: 1}
	o := checkerMonitor(2)
	o.OnDelivery(0, ring, 1, "d0")
	o.OnDelivery(1, ring, 1, "d1")
	if v := o.Violation(); v == nil || v.Oracle != "delivery-order" {
		t.Fatalf("conflicting origins not caught: %v", v)
	}

	o = checkerMonitor(1)
	o.OnDelivery(0, ring, 2, "d0")
	o.OnDelivery(0, ring, 1, "d0")
	if v := o.Violation(); v == nil || v.Oracle != "delivery-order" {
		t.Fatalf("out-of-order delivery not caught: %v", v)
	}
}

func TestParseMutation(t *testing.T) {
	m, err := ParseMutation("keep-on-release:2")
	if err != nil || m == nil || m.String() != "keep-on-release:2" {
		t.Fatalf("parse failed: %v %v", m, err)
	}
	if m, err := ParseMutation(""); err != nil || m != nil {
		t.Fatalf("empty mutation should parse to nil, got %v %v", m, err)
	}
	if _, err := ParseMutation("definitely-not-a-mutation"); err == nil {
		t.Fatalf("unknown mutation accepted")
	}
}
