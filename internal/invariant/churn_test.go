package invariant

import (
	"strings"
	"testing"
)

// churnMonitor builds a 2-node monitor with the churn oracle armed at
// bound, both nodes in view v1, and node 0 owning g1..gN under v1 (first
// acquisitions are free — there is no previous owner to move from).
func churnMonitor(bound int, groups ...string) *Monitor {
	m := testMonitor(2, Config{ChurnBound: bound})
	m.onView(0, view("v1", "a", "b"))
	m.onView(1, view("v1", "a", "b"))
	for _, g := range groups {
		m.onOwnership(0, g, true, "v1")
	}
	return m
}

func installView(m *Monitor, id string) {
	m.onView(0, view(id, "a", "b"))
	m.onView(1, view(id, "a", "b"))
}

// viewMoves reports how many relocations the churn oracle has counted for
// viewID (0 if the view fell out of the window or never moved anything).
func viewMoves(m *Monitor, viewID string) int {
	for _, cv := range m.churnViews {
		if cv.id == viewID {
			return cv.moves
		}
	}
	return 0
}

func TestChurnOracleTrips(t *testing.T) {
	m := churnMonitor(2, "g1", "g2", "g3")
	if v := m.Violation(); v != nil {
		t.Fatalf("initial acquisitions tripped an oracle: %v", v)
	}

	installView(m, "v2")
	m.onOwnership(0, "g1", false, "v2")
	m.onOwnership(1, "g1", true, "v2")
	m.onOwnership(0, "g2", false, "v2")
	m.onOwnership(1, "g2", true, "v2")
	if v := m.Violation(); v != nil {
		t.Fatalf("2 relocations with bound 2 tripped: %v", v)
	}
	if got := viewMoves(m, "v2"); got != 2 {
		t.Fatalf("viewMoves(v2) = %d, want 2", got)
	}

	m.onOwnership(0, "g3", false, "v2")
	m.onOwnership(1, "g3", true, "v2")
	v := m.Violation()
	if v == nil {
		t.Fatal("3 relocations in one view with bound 2 did not trip the churn oracle")
	}
	if v.Oracle != oracleChurn {
		t.Fatalf("oracle = %q, want %q", v.Oracle, oracleChurn)
	}
	if !strings.Contains(v.Detail, "v2") || !strings.Contains(v.Detail, "g3") {
		t.Fatalf("violation detail names neither view nor group: %q", v.Detail)
	}
}

// The bound applies per view: relocations in successive reconfigurations
// never accumulate against each other.
func TestChurnOraclePerView(t *testing.T) {
	m := churnMonitor(1, "g1")
	for k, id := range []string{"v2", "v3", "v4"} {
		installView(m, id)
		from, to := k%2, (k+1)%2
		m.onOwnership(from, "g1", false, id)
		m.onOwnership(to, "g1", true, id)
	}
	if v := m.Violation(); v != nil {
		t.Fatalf("one relocation per view with bound 1 tripped: %v", v)
	}
}

// A shard counts once per view, however often it is re-claimed inside it —
// intra-view ping-pong is the ping-pong oracle's jurisdiction.
func TestChurnOracleDedupsWithinView(t *testing.T) {
	m := churnMonitor(1, "g1")
	installView(m, "v2")
	for k := 0; k < 4; k++ {
		from, to := k%2, (k+1)%2
		m.onOwnership(from, "g1", false, "v2")
		m.onOwnership(to, "g1", true, "v2")
	}
	if v := m.Violation(); v != nil {
		t.Fatalf("re-claims of one shard within one view tripped churn: %v", v)
	}
	if got := viewMoves(m, "v2"); got != 1 {
		t.Fatalf("viewMoves(v2) = %d, want 1", got)
	}
}

func TestChurnOracleDisarmedByDefault(t *testing.T) {
	m := churnMonitor(0, "g1", "g2", "g3")
	installView(m, "v2")
	for _, g := range []string{"g1", "g2", "g3"} {
		m.onOwnership(0, g, false, "v2")
		m.onOwnership(1, g, true, "v2")
	}
	if v := m.Violation(); v != nil {
		t.Fatalf("disarmed churn oracle tripped: %v", v)
	}
	// Disarmed still counts, so late armers can inspect history.
	if got := viewMoves(m, "v2"); got != 3 {
		t.Fatalf("viewMoves(v2) = %d while disarmed, want 3", got)
	}
}

// ArmChurn discards pre-arm view counts (formation churn is free) but keeps
// the owner history, so the first post-arm relocation is still recognized.
func TestArmChurnMidRun(t *testing.T) {
	m := churnMonitor(0, "g1", "g2")
	installView(m, "v2")
	m.onOwnership(0, "g1", false, "v2")
	m.onOwnership(1, "g1", true, "v2")

	m.ArmChurn(1)
	if got := viewMoves(m, "v2"); got != 0 {
		t.Fatalf("viewMoves(v2) = %d after arming, want 0", got)
	}
	// One relocation in the same view: within bound, because arming wiped
	// the view's tally.
	m.onOwnership(1, "g2", true, "v2")
	m.onOwnership(0, "g2", false, "v2")
	if v := m.Violation(); v != nil {
		t.Fatalf("single post-arm relocation with bound 1 tripped: %v", v)
	}
	// A second relocated shard in the same view exceeds the bound. g1 moves
	// back to node 0: the owner history survived arming, so this is
	// recognized as a relocation.
	m.onOwnership(1, "g1", false, "v2")
	m.onOwnership(0, "g1", true, "v2")
	v := m.Violation()
	if v == nil {
		t.Fatal("2 post-arm relocations with bound 1 did not trip")
	}
	if v.Oracle != oracleChurn {
		t.Fatalf("oracle = %q, want %q", v.Oracle, oracleChurn)
	}
}

// The armed churn path must stay allocation-free in steady state: shard
// owner history is pre-sized at registration and the view ring is fixed.
func TestChurnSteadyStateAllocationFree(t *testing.T) {
	m := churnMonitor(1000, "g1")
	installView(m, "v2")
	k := 0
	if avg := testing.AllocsPerRun(200, func() {
		from, to := k%2, (k+1)%2
		m.onOwnership(from, "g1", false, "v2")
		m.onOwnership(to, "g1", true, "v2")
		k++
	}); avg != 0 {
		t.Errorf("armed churn ownership path allocates %v per event, want 0", avg)
	}
}
