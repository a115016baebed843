package invariant

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wackamole/internal/core"
	"wackamole/internal/gcs"
	"wackamole/internal/metrics"
	"wackamole/internal/obs"
)

// testMonitor builds a monitor whose node slots are members "a", "b", ...
// without attaching hooks, for driving the event methods directly.
func testMonitor(nodes int, cfg Config) *Monitor {
	cfg.Nodes = nodes
	if cfg.Now == nil {
		cfg.Now = func() time.Duration { return 0 }
	}
	m := New(cfg)
	for i := 0; i < nodes; i++ {
		m.selfs[i] = core.MemberID(string(rune('a' + i)))
	}
	return m
}

func view(id string, members ...core.MemberID) core.View {
	return core.View{ID: id, Members: members}
}

// The hot path must not allocate once warmed up: steady-state re-observation
// of the current view, in-window deliveries and ownership flips on a known
// shard are the events an always-on production monitor sees millions of
// times. This is the PR's allocation pin.
func TestOnlineHotPathAllocationFree(t *testing.T) {
	reg := metrics.New()
	m := testMonitor(2, Config{Metrics: reg})
	v1 := view("v1", "a", "b")
	ring := gcs.RingID{Coord: "10.0.0.1:4803", Epoch: 1}

	// Warm-up: first sight of the view, the ring and the shard allocates
	// (window, lastSeq entry, shard claim state); afterwards it must not.
	m.onView(0, v1)
	m.onView(1, v1)
	var seq uint64
	for k := 0; k < 8; k++ {
		seq++
		m.OnDelivery(0, ring, seq, "10.0.0.1:4803")
		m.OnDelivery(1, ring, seq, "10.0.0.1:4803")
	}
	m.onOwnership(0, "web1", true, "v1")

	if avg := testing.AllocsPerRun(200, func() { m.onView(0, v1) }); avg != 0 {
		t.Errorf("onView steady state allocates %v per event, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		seq++
		m.OnDelivery(0, ring, seq, "10.0.0.1:4803")
	}); avg != 0 {
		t.Errorf("OnDelivery steady state allocates %v per event, want 0", avg)
	}
	owned := true
	if avg := testing.AllocsPerRun(200, func() {
		owned = !owned
		m.onOwnership(0, "web1", owned, "v1")
	}); avg != 0 {
		t.Errorf("onOwnership steady state allocates %v per event, want 0", avg)
	}
	if v := m.Violation(); v != nil {
		t.Fatalf("pin workload tripped an oracle: %v", v)
	}
	if got := reg.Counter("invariant_violations_total", "").Value(); got != 0 {
		t.Fatalf("invariant_violations_total = %d, want 0", got)
	}
	if got := reg.Counter("invariant_delivery_events_total", "").Value(); got == 0 {
		t.Fatal("invariant_delivery_events_total not exported")
	}
}

func TestOnlineDeliveryRegression(t *testing.T) {
	m := testMonitor(1, Config{})
	ring := gcs.RingID{Coord: "c", Epoch: 1}
	m.OnDelivery(0, ring, 5, "c")
	m.OnDelivery(0, ring, 5, "c")
	v := m.Violation()
	if v == nil || v.Oracle != oracleDeliveryOrder {
		t.Fatalf("violation = %v, want delivery-order", v)
	}
	if want := "server 0 delivered ring c/1 seq 5 after seq 5"; v.Detail != want {
		t.Fatalf("detail = %q, want %q", v.Detail, want)
	}
}

func TestOnlineOriginConflict(t *testing.T) {
	m := testMonitor(2, Config{})
	ring := gcs.RingID{Coord: "c", Epoch: 1}
	m.OnDelivery(0, ring, 7, "x")
	m.OnDelivery(1, ring, 7, "y")
	v := m.Violation()
	if v == nil || v.Oracle != oracleDeliveryOrder || !strings.Contains(v.Detail, "but x elsewhere") {
		t.Fatalf("violation = %v, want origin conflict", v)
	}
}

// A seq that has already fallen out of the window can no longer be
// compared: the monitor must stay silent rather than compare against a
// recycled slot, and count the delivery as dropped.
func TestOnlineWindowForgetsOldSeqs(t *testing.T) {
	m := testMonitor(2, Config{})
	ring := gcs.RingID{Coord: "c", Epoch: 1}
	for seq := uint64(1); seq <= originWindow+12; seq++ {
		m.OnDelivery(0, ring, seq, "x")
	}
	if got := m.Dropped(); got != 0 {
		t.Fatalf("Dropped() = %d after in-order deliveries, want 0", got)
	}
	// Node 1 trails far behind the window with a different origin: stale,
	// not a conflict.
	m.OnDelivery(1, ring, 2, "y")
	if v := m.Violation(); v != nil {
		t.Fatalf("stale delivery outside the window tripped: %v", v)
	}
	if got := m.Dropped(); got != 1 {
		t.Fatalf("Dropped() = %d after one stale delivery, want 1", got)
	}
}

func TestOnlineViewOrderIncremental(t *testing.T) {
	m := testMonitor(2, Config{})
	m.onView(0, view("v1", "a"))
	m.onView(0, view("v2", "a", "b"))
	m.onView(1, view("v2", "a", "b"))
	m.onView(1, view("v1", "a"))
	v := m.Violation()
	if v == nil || v.Oracle != oracleViewOrder {
		t.Fatalf("violation = %v, want view-order", v)
	}
	if want := "servers 0 and 1 installed views v2 and v1 in opposite orders"; v.Detail != want {
		t.Fatalf("detail = %q, want %q", v.Detail, want)
	}
}

// Each bound forgets its oldest entry one step past capacity and counts
// exactly one drop for it, without tripping an oracle.
func TestDroppedCountsEachBound(t *testing.T) {
	viewNodes := maxViews / viewHistory
	cases := []struct {
		name  string
		nodes int
		fill  func(m *Monitor) // up to the bound: nothing forgotten yet
		over  func(m *Monitor) // one entry past it
	}{
		{"view table", viewNodes + 1,
			func(m *Monitor) {
				// Spread over nodes so that no view history wraps.
				for n := 0; n < viewNodes; n++ {
					for k := 0; k < viewHistory; k++ {
						m.onView(n, view(fmt.Sprintf("v%d.%d", n, k), "a"))
					}
				}
			},
			func(m *Monitor) { m.onView(viewNodes, view("last", "a")) }},
		{"view history", 1,
			func(m *Monitor) {
				for k := 0; k < viewHistory; k++ {
					m.onView(0, view(fmt.Sprintf("v%d", k), "a"))
				}
			},
			func(m *Monitor) { m.onView(0, view("last", "a")) }},
		{"ring", 1,
			func(m *Monitor) {
				for e := uint64(1); e <= maxRings; e++ {
					m.OnDelivery(0, gcs.RingID{Coord: "c", Epoch: e}, 1, "c")
				}
			},
			func(m *Monitor) { m.OnDelivery(0, gcs.RingID{Coord: "c", Epoch: maxRings + 1}, 1, "c") }},
		{"origin window", 2,
			func(m *Monitor) {
				for seq := uint64(1); seq <= originWindow+1; seq++ {
					m.OnDelivery(0, gcs.RingID{Coord: "c", Epoch: 1}, seq, "c")
				}
			},
			func(m *Monitor) { m.OnDelivery(1, gcs.RingID{Coord: "c", Epoch: 1}, 1, "c") }},
		{"shard", 1,
			func(m *Monitor) {
				for g := 0; g < maxShards; g++ {
					m.onOwnership(0, fmt.Sprintf("g%d", g), false, "")
				}
			},
			func(m *Monitor) { m.onOwnership(0, "last", false, "") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := testMonitor(tc.nodes, Config{})
			tc.fill(m)
			if got := m.Dropped(); got != 0 {
				t.Fatalf("Dropped() = %d at the bound, want 0", got)
			}
			tc.over(m)
			if got := m.Dropped(); got != 1 {
				t.Fatalf("Dropped() = %d one past the bound, want 1", got)
			}
			if v := m.Violation(); v != nil {
				t.Fatalf("forgetting tripped an oracle: %v", v)
			}
		})
	}
}

func TestOnlineViewIdentity(t *testing.T) {
	m := testMonitor(2, Config{})
	m.onView(0, view("v1", "a", "b"))
	m.onView(1, view("v1", "a"))
	v := m.Violation()
	if v == nil || v.Oracle != oracleViewOrder || !strings.Contains(v.Detail, "diverging member lists") {
		t.Fatalf("violation = %v, want diverging member lists", v)
	}
}

func TestOnlineForeignClaim(t *testing.T) {
	t.Run("stale view", func(t *testing.T) {
		m := testMonitor(1, Config{})
		m.onView(0, view("v2", "a"))
		m.onOwnership(0, "web1", true, "v1")
		v := m.Violation()
		if v == nil || v.Oracle != oracleForeignClaim {
			t.Fatalf("violation = %v, want foreign-claim", v)
		}
	})
	t.Run("not a member", func(t *testing.T) {
		m := testMonitor(1, Config{})
		m.selfs[0] = "z"
		m.onView(0, view("v1", "a", "b"))
		m.onOwnership(0, "web1", true, "v1")
		v := m.Violation()
		if v == nil || v.Oracle != oracleForeignClaim || !strings.Contains(v.Detail, "outside its view") {
			t.Fatalf("violation = %v, want outside-view claim", v)
		}
	})
}

func TestShardTracking(t *testing.T) {
	reg := metrics.New()
	m := testMonitor(3, Config{Metrics: reg})
	gauge := func() float64 {
		return reg.Snapshot().Family("invariant_shard_multi_owner").Series[0].Value
	}
	owners := func(group string) int {
		if idx, ok := m.shardIdx[group]; ok {
			return m.shardCount[idx]
		}
		return 0
	}
	m.onView(0, view("v1", "a", "b", "c"))
	m.onView(1, view("v1", "a", "b", "c"))
	m.onOwnership(0, "web1", true, "v1")
	if got := owners("web1"); got != 1 {
		t.Fatalf("owners(web1) = %d, want 1", got)
	}
	if gauge() != 0 {
		t.Fatalf("multi-owner gauge = %v, want 0", gauge())
	}
	m.onOwnership(1, "web1", true, "v1")
	if got := owners("web1"); got != 2 {
		t.Fatalf("owners(web1) = %d, want 2", got)
	}
	if gauge() != 1 {
		t.Fatalf("multi-owner gauge = %v, want 1", gauge())
	}
	m.onOwnership(0, "web1", false, "v1")
	if gauge() != 0 {
		t.Fatalf("multi-owner gauge after release = %v, want 0", gauge())
	}
	if got := owners("web3"); got != 0 {
		t.Fatalf("owners(unseen) = %d, want 0", got)
	}
}

func TestFirstViolationWins(t *testing.T) {
	var calls []string
	m := testMonitor(1, Config{OnViolation: func(v *Violation) { calls = append(calls, v.Detail) }})
	m.Fail(OracleConvergence, "first")
	m.Fail(oracleExactlyOnce, "second")
	ring := gcs.RingID{Coord: "c", Epoch: 1}
	m.OnDelivery(0, ring, 3, "c")
	m.OnDelivery(0, ring, 3, "c") // would be a violation on its own
	if v := m.Violation(); v == nil || v.Detail != "first" {
		t.Fatalf("violation = %v, want the first failure", v)
	}
	if len(calls) != 1 || calls[0] != "first" {
		t.Fatalf("OnViolation calls = %v, want exactly [first]", calls)
	}
}

// A violation is recorded once, in the planes a flight bundle spills: the
// invariant-violation trace event carries the oracle and detail, and the
// registry carries the violation and the activity counts.
func TestViolationInFlightBundle(t *testing.T) {
	tracer := obs.New(64, nil)
	reg := metrics.New()
	m := testMonitor(1, Config{Tracer: tracer, Metrics: reg, Name: "unit"})
	m.onView(0, view("v1", "a"))
	m.Fail(oracleExactlyOnce, "deliberate")
	dir, err := obs.NewFlightRecorder(obs.FlightConfig{
		Dir:      t.TempDir(),
		Node:     "unit",
		Tracer:   tracer,
		Registry: reg,
	}).Dump("invariant:" + oracleExactlyOnce)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := os.ReadFile(filepath.Join(dir, obs.BundleTrace))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, line := range strings.Split(strings.TrimSpace(string(tail)), "\n") {
		var e obs.Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		if e.Kind == obs.KindInvariantViolation && e.Node == "unit" &&
			e.Group == oracleExactlyOnce && e.Detail == "deliberate" {
			found = true
		}
	}
	if !found {
		t.Fatalf("bundle trace lacks the invariant-violation event:\n%s", tail)
	}
	prom, err := os.ReadFile(filepath.Join(dir, "metrics.prom"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"invariant_violations_total 1", "invariant_view_events_total 1"} {
		if !strings.Contains(string(prom), want) {
			t.Fatalf("bundle metrics lack %q:\n%s", want, prom)
		}
	}
}

// Every exported method must be a no-op on a nil monitor, so call sites can
// arm monitors conditionally without branching.
func TestNilMonitor(t *testing.T) {
	var m *Monitor
	m.onView(0, view("v1", "a"))
	m.OnDelivery(0, gcs.RingID{Coord: "c", Epoch: 1}, 1, "c")
	m.onOwnership(0, "web1", true, "v1")
	m.SetStep(3)
	m.SetNow(func() time.Duration { return 0 })
	m.Fail(OracleConvergence, "x")
	if m.Violation() != nil || m.Installs() != 0 || m.Dropped() != 0 {
		t.Fatal("nil monitor reported state")
	}
}
