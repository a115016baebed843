package invariant

import (
	"strings"
	"testing"
	"time"
)

// claimRelease drives one full ownership cycle on node 0 so the next claim
// is a fresh false→true transition.
func claimRelease(m *Monitor, group string) {
	m.onOwnership(0, group, true, "v1")
	m.onOwnership(0, group, false, "v1")
}

func pingPongMonitor(bound int, window time.Duration, now *time.Duration) *Monitor {
	m := testMonitor(2, Config{
		PingPongBound:  bound,
		PingPongWindow: window,
		Now:            func() time.Duration { return *now },
	})
	m.onView(0, view("v1", "a", "b"))
	m.onView(1, view("v1", "a", "b"))
	return m
}

func TestPingPongOracleTrips(t *testing.T) {
	var now time.Duration
	m := pingPongMonitor(3, time.Second, &now)

	// Three claims inside the window stay within the bound.
	for k := 0; k < 3; k++ {
		claimRelease(m, "web1")
		now += 100 * time.Millisecond
	}
	if v := m.Violation(); v != nil {
		t.Fatalf("bound-respecting claims tripped an oracle: %v", v)
	}

	// The fourth claim lands 300ms after the first: bound+1 claims in 1s.
	claimRelease(m, "web1")
	v := m.Violation()
	if v == nil {
		t.Fatal("4 claims in 300ms with bound 3/1s did not trip the ping-pong oracle")
	}
	if v.Oracle != oraclePingPong {
		t.Fatalf("oracle = %q, want %q", v.Oracle, oraclePingPong)
	}
	if !strings.Contains(v.Detail, "web1") {
		t.Fatalf("violation detail does not name the group: %q", v.Detail)
	}
}

func TestPingPongOracleRespectsWindow(t *testing.T) {
	var now time.Duration
	m := pingPongMonitor(3, time.Second, &now)

	// Claims 600ms apart: any 4 consecutive claims span 1.8s > window.
	for k := 0; k < 10; k++ {
		claimRelease(m, "web1")
		now += 600 * time.Millisecond
	}
	if v := m.Violation(); v != nil {
		t.Fatalf("slow re-claims tripped the ping-pong oracle: %v", v)
	}
}

func TestPingPongOracleDisarmedByDefault(t *testing.T) {
	var now time.Duration
	m := testMonitor(2, Config{
		Now: func() time.Duration { return *(&now) },
	})
	m.onView(0, view("v1", "a", "b"))
	for k := 0; k < 50; k++ {
		claimRelease(m, "web1")
	}
	if v := m.Violation(); v != nil {
		t.Fatalf("disarmed ping-pong oracle tripped: %v", v)
	}
}

// Ping-pong state is per shard: churn on one group must not charge another.
func TestPingPongOraclePerShard(t *testing.T) {
	var now time.Duration
	m := pingPongMonitor(3, time.Second, &now)
	for k := 0; k < 2; k++ {
		claimRelease(m, "web1")
		claimRelease(m, "web2") // registered on first sight
	}
	if v := m.Violation(); v != nil {
		t.Fatalf("2 claims per group with bound 3 tripped: %v", v)
	}
}

func TestFalseSuspectOracle(t *testing.T) {
	m := testMonitor(3, Config{FalseSuspectBound: 2})
	m.OnFalseSuspicion(0, "10.0.0.11:4803")
	m.OnFalseSuspicion(1, "10.0.0.11:4803")
	if v := m.Violation(); v != nil {
		t.Fatalf("bound-respecting false suspicions tripped: %v", v)
	}
	m.OnFalseSuspicion(2, "10.0.0.12:4803")
	v := m.Violation()
	if v == nil {
		t.Fatal("3 false suspicions with bound 2 did not trip the oracle")
	}
	if v.Oracle != oracleFalseSuspect {
		t.Fatalf("oracle = %q, want %q", v.Oracle, oracleFalseSuspect)
	}
	if got := m.falseSuspects; got != 3 {
		t.Fatalf("falseSuspects = %d, want 3", got)
	}
}

func TestFalseSuspectOracleDisarmedByDefault(t *testing.T) {
	m := testMonitor(2, Config{})
	for k := 0; k < 10; k++ {
		m.OnFalseSuspicion(0, "peer")
	}
	if v := m.Violation(); v != nil {
		t.Fatalf("disarmed false-suspect oracle tripped: %v", v)
	}
	if got := m.falseSuspects; got != 0 {
		t.Fatalf("disarmed monitor counted %d false suspicions, want 0", got)
	}
	var nilMon *Monitor
	nilMon.OnFalseSuspicion(0, "peer") // nil-safe like every hook
}

// The armed ping-pong path must stay allocation-free in steady state — the
// ring is pre-sized at shard registration.
func TestPingPongSteadyStateAllocationFree(t *testing.T) {
	var now time.Duration
	m := pingPongMonitor(4, time.Millisecond, &now) // tiny window: never trips
	claimRelease(m, "web1")
	owned := true
	if avg := testing.AllocsPerRun(200, func() {
		now += time.Second
		owned = !owned
		m.onOwnership(0, "web1", owned, "v1")
	}); avg != 0 {
		t.Errorf("armed ping-pong ownership path allocates %v per event, want 0", avg)
	}
}
