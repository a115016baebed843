package core_test

import (
	"testing"
	"time"

	"wackamole/internal/core"
	"wackamole/internal/placement"
)

// minimalConfig builds a per-member config running the minimal-move
// placement policy (each engine gets its own policy instance — they carry
// scratch state).
func minimalConfig(vips int, startMature bool) func(int) core.Config {
	return func(int) core.Config {
		placer, _ := placement.New(placement.NameMinimal) // a known name
		return core.Config{
			Groups:         groups(vips),
			StartMature:    startMature,
			BalanceTimeout: time.Second,
			Placer:         placer,
		}
	}
}

func tableOf(h *harness, id core.MemberID) map[string]core.MemberID {
	return h.engines[id].Snapshot().Table
}

// TestMinimalPolicyLeaveChurn: after a member departs, the engines repair
// the table by moving exactly the leaver's groups — at most ⌈V/N⌉ — and
// the follow-up balance has nothing left to do.
func TestMinimalPolicyLeaveChurn(t *testing.T) {
	const vips = 10
	h := newHarnessCfg(t, 4, minimalConfig(vips, true))
	h.setPartition(h.all())
	h.pump()
	h.runFor(2 * time.Second) // let the balance settle the initial allocation
	h.checkComponent(h.all(), true)

	leaver := h.members[3]
	before := tableOf(h, h.members[0])
	orphans := 0
	for _, owner := range before {
		if owner == leaver {
			orphans++
		}
	}
	movesBefore := h.engines[h.members[0]].Stats().Moves

	rest := h.members[:3]
	h.setPartition(rest, []core.MemberID{leaver})
	h.pump()
	h.runFor(3 * time.Second) // leave repair plus any follow-up balance
	h.checkComponent(rest, true)

	moves := h.engines[rest[0]].Stats().Moves - movesBefore
	if bound := uint64((vips + 3) / 4); uint64(orphans) > bound {
		t.Fatalf("leaver owned %d groups, balanced bound %d", orphans, bound)
	}
	if moves != uint64(orphans) {
		t.Fatalf("leave relocated %d groups, want exactly the %d orphans", moves, orphans)
	}
	after := tableOf(h, rest[0])
	for g, owner := range after {
		if before[g] != leaver && before[g] != owner {
			t.Fatalf("group %s moved from %s to %s although its owner survived", g, before[g], owner)
		}
	}
}

// TestMinimalPolicyJoinChurn: a freshly admitted member is handed at most
// ⌈V/N⌉ groups and nothing moves between the incumbents. The joiner runs
// the maturity bootstrap (§3.4): it is started immature, matures on
// contact, announces, and only then receives load.
func TestMinimalPolicyJoinChurn(t *testing.T) {
	const vips = 10
	cfgFor := func(i int) core.Config {
		cfg := minimalConfig(vips, true)(i)
		if i == 3 {
			cfg.StartMature = false // the joiner bootstraps via §3.4
		}
		return cfg
	}
	h := newHarnessCfg(t, 4, cfgFor)
	incumbents := h.members[:3]
	joiner := h.members[3]
	h.setPartition(incumbents, []core.MemberID{joiner})
	h.pump()
	h.runFor(2 * time.Second)
	h.checkComponent(incumbents, true)

	before := tableOf(h, incumbents[0])
	movesBefore := h.engines[incumbents[0]].Stats().Moves

	h.setPartition(h.all())
	h.pump()
	// Immediately after the gather the joiner owns nothing: it matured on
	// contact during GATHER, so it was not eligible for the fill.
	if owned := h.engines[joiner].Snapshot().Owned; len(owned) != 0 {
		t.Fatalf("joiner owns %v before the balance admitted it", owned)
	}
	h.runFor(3 * time.Second) // maturity announcement + balance
	h.checkComponent(h.all(), true)

	after := tableOf(h, h.members[0])
	joinerLoad := 0
	for g, owner := range after {
		if owner == joiner {
			joinerLoad++
		} else if before[g] != owner {
			t.Fatalf("join moved %s between incumbents (%s -> %s)", g, before[g], owner)
		}
	}
	if joinerLoad == 0 {
		t.Fatal("joiner was never handed any load")
	}
	bound := uint64((vips + 3) / 4)
	if moves := h.engines[h.members[0]].Stats().Moves - movesBefore; moves > bound {
		t.Fatalf("join relocated %d groups, bound %d", moves, bound)
	}
	if st := h.engines[joiner].Snapshot(); !st.Mature {
		t.Fatal("joiner did not mature on contact")
	}
}

// TestPlacementStats: the Moves counter attributes churn identically at
// every member, and the skew gauge reflects the balanced spread.
func TestPlacementStats(t *testing.T) {
	h := newHarnessCfg(t, 3, minimalConfig(9, true))
	h.setPartition(h.all())
	h.pump()
	h.runFor(2 * time.Second)
	// 9 groups over 3 members: perfectly balanced, skew 0, and the initial
	// assignment is takeovers, not moves.
	for _, id := range h.all() {
		st := h.engines[id].Stats()
		if st.Moves != 0 {
			t.Fatalf("%s counted %d moves on initial placement, want 0", id, st.Moves)
		}
		if st.Skew != 0 {
			t.Fatalf("%s skew %d on a 9/3 allocation, want 0", id, st.Skew)
		}
	}

	h.setPartition(h.members[:2], h.members[2:])
	h.pump()
	h.runFor(2 * time.Second)
	ref := h.engines[h.members[0]].Stats().Moves
	if ref == 0 {
		t.Fatal("no moves counted after a departure orphaned groups")
	}
	if other := h.engines[h.members[1]].Stats().Moves; other != ref {
		t.Fatalf("move counters diverge: %d vs %d", ref, other)
	}
}

// TestResetMaturity: only valid while detached; it rewinds the engine to
// the immature state and re-arms the bootstrap timer.
func TestResetMaturity(t *testing.T) {
	h := newHarness(t, 2, matureConfig(4))
	h.setPartition(h.all())
	h.pump()
	e := h.engines[h.members[0]]

	e.ResetMaturity() // connected: must be ignored
	if !e.Snapshot().Mature {
		t.Fatal("ResetMaturity rewound a connected engine")
	}

	e.OnDisconnect()
	e.ResetMaturity()
	if st := e.Snapshot(); st.Mature {
		t.Fatal("ResetMaturity left the engine mature")
	}
	// The bootstrap timer is re-armed: with nobody to contact, the engine
	// matures by timeout again.
	h.sim.RunFor(6 * time.Second)
	if st := e.Snapshot(); !st.Mature {
		t.Fatal("maturity timeout did not re-fire after ResetMaturity")
	}
}

// TestPlacementName surfaces the active policy for the status line.
func TestPlacementName(t *testing.T) {
	h := newHarnessCfg(t, 1, minimalConfig(4, true))
	if got := h.engines[h.members[0]].PlacementName(); got != placement.NameMinimal {
		t.Fatalf("PlacementName() = %q, want %q", got, placement.NameMinimal)
	}
	h2 := newHarness(t, 1, matureConfig(4))
	if got := h2.engines[h2.members[0]].PlacementName(); got != placement.NameLeastLoaded {
		t.Fatalf("default PlacementName() = %q, want %q", got, placement.NameLeastLoaded)
	}
}
