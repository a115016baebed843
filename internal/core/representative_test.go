package core_test

import (
	"testing"
	"time"

	"wackamole/internal/core"
)

func repConfig(n int) core.Config {
	cfg := matureConfig(n)
	cfg.RepresentativeDecisions = true
	return cfg
}

func TestRepresentativeModeCoversExactlyOnce(t *testing.T) {
	h := newHarness(t, 4, repConfig(10))
	h.setPartition(h.all())
	h.pump()
	h.checkComponent(h.all(), true)
}

func TestRepresentativeModeMergeResolvesConflicts(t *testing.T) {
	h := newHarness(t, 4, repConfig(8))
	h.setPartition(h.all())
	h.pump()
	h.setPartition(h.members[:2], h.members[2:])
	h.pump()
	h.checkComponent(h.members[:2], true)
	h.checkComponent(h.members[2:], true)
	h.setPartition(h.all())
	h.pump()
	h.checkComponent(h.all(), true)
	total := 0
	for _, id := range h.members {
		total += len(h.engines[id].Snapshot().Owned)
	}
	if total != 8 {
		t.Fatalf("owned %d groups in total after merge, want 8", total)
	}
}

// TestRepresentativeMatchesIndependentDecisions pins the §4.2 observation
// that the variant changes the decision *path*, not the decision: both
// modes produce identical allocations from identical histories.
func TestRepresentativeMatchesIndependentDecisions(t *testing.T) {
	run := func(rep bool) map[string]core.MemberID {
		cfg := matureConfig(12)
		cfg.RepresentativeDecisions = rep
		h := newHarness(t, 5, cfg)
		h.setPartition(h.all())
		h.pump()
		h.setPartition(h.members[:3], h.members[3:])
		h.pump()
		h.setPartition(h.all())
		h.pump()
		h.checkComponent(h.all(), true)
		return h.engines[h.members[0]].Snapshot().Table
	}
	indep, repd := run(false), run(true)
	for g := range indep {
		if indep[g] != repd[g] {
			t.Fatalf("modes disagree on %q: independent=%q representative=%q", g, indep[g], repd[g])
		}
	}
}

func TestRepresentativeModeStaysInGatherUntilAlloc(t *testing.T) {
	h := newHarness(t, 3, repConfig(6))
	h.setPartition(h.all())
	// Deliver only the STATE messages (3 of them); hold the ALLOC back.
	for i := 0; i < 3; i++ {
		m := h.queue[0]
		h.queue = h.queue[1:]
		for _, id := range h.members {
			h.engines[id].OnMessage(m.from, m.payload)
		}
	}
	for _, id := range h.members {
		if st := h.engines[id].Snapshot().State; st != core.StateGather {
			t.Fatalf("%s state = %v before ALLOC, want gather", id, st)
		}
	}
	if len(h.queue) != 1 {
		t.Fatalf("queue = %d messages, want exactly the representative's ALLOC", len(h.queue))
	}
	h.pump()
	h.checkComponent(h.all(), true)
}

func TestRepresentativeModeAllocFromNonRepIgnored(t *testing.T) {
	h := newHarness(t, 2, repConfig(4))
	h.setPartition(h.all())
	// Capture the legitimate ALLOC payload, then replay it as if from the
	// non-representative: it must be ignored in a fresh identical harness.
	var alloc []byte
	for len(h.queue) > 0 {
		m := h.queue[0]
		h.queue = h.queue[1:]
		if len(h.queue) == 0 {
			alloc = m.payload // last message is the ALLOC
		}
		for _, id := range h.members {
			h.engines[id].OnMessage(m.from, m.payload)
		}
	}
	h.checkComponent(h.all(), true)

	h2 := newHarness(t, 2, repConfig(4))
	h2.setPartition(h2.all())
	// Deliver the two STATE messages only.
	for i := 0; i < 2; i++ {
		m := h2.queue[0]
		h2.queue = h2.queue[1:]
		for _, id := range h2.members {
			h2.engines[id].OnMessage(m.from, m.payload)
		}
	}
	for _, id := range h2.members {
		h2.engines[id].OnMessage(h2.members[1], alloc) // wrong sender
	}
	for _, id := range h2.members {
		if st := h2.engines[id].Snapshot().State; st != core.StateGather {
			t.Fatalf("%s accepted an ALLOC from the non-representative", id)
		}
	}
}

func TestRepresentativeModeCascadeResends(t *testing.T) {
	h := newHarness(t, 3, repConfig(6))
	h.setPartition(h.all())
	h.pump()
	before := h.engines[h.members[0]].Snapshot().Table
	// New view; drop everything mid-gather; cascade into another view.
	h.setPartition(h.all())
	h.setPartition(h.all())
	h.pump()
	h.checkComponent(h.all(), true)
	after := h.engines[h.members[0]].Snapshot().Table
	for g := range before {
		if before[g] != after[g] {
			t.Fatalf("stable membership reshuffled %q under cascades", g)
		}
	}
}

func TestRepresentativeModeWithMaturity(t *testing.T) {
	cfg := core.Config{Groups: groups(6), MatureTimeout: 4 * time.Second, RepresentativeDecisions: true}
	h := newHarness(t, 3, cfg)
	h.setPartition(h.all())
	h.pump()
	for _, id := range h.members {
		if n := len(h.engines[id].Snapshot().Owned); n != 0 {
			t.Fatalf("%s owns %d groups while immature", id, n)
		}
	}
	h.runFor(5 * time.Second)
	h.checkComponent(h.all(), true)
}

func TestRepresentativeModeBalanceStillWorks(t *testing.T) {
	cfg := repConfig(10)
	cfg.BalanceTimeout = 5 * time.Second
	h := newHarness(t, 2, cfg)
	a, b := h.members[0], h.members[1]
	h.setPartition([]core.MemberID{a})
	h.pump()
	h.setPartition([]core.MemberID{a, b})
	h.pump()
	h.runFor(6 * time.Second)
	counts := ownerCounts(h.engines[a])
	if counts[a] != 5 || counts[b] != 5 {
		t.Fatalf("post-balance allocation = %v, want 5/5", counts)
	}
}
