package core_test

// Micro-benchmarks of the engine's hot paths: the state-message merge with
// conflict resolution, the deterministic reallocation, and the balancing
// decision, at the paper's scale (10 VIPs) and well beyond it.

import (
	"fmt"
	"testing"
	"time"

	"wackamole/internal/core"
)

// The three view-round benchmarks build their harness — engines, address
// managers, a tracer with its 32 768-slot ring — once, outside the timer, and
// settle it; an iteration is then what the name says and nothing else.

func BenchmarkGatherMergeAndReallocate(b *testing.B) {
	for _, vips := range []int{10, 100} {
		vips := vips
		b.Run(fmt.Sprintf("vips=%d", vips), func(b *testing.B) {
			h := newHarness(b, 5, matureConfig(vips))
			h.setPartition(h.all())
			h.pump()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// One view round: five STATE_MSGs merged at five engines,
				// then the reallocation.
				h.setPartition(h.all())
				h.pump()
			}
		})
	}
}

func BenchmarkMergeWithConflicts(b *testing.B) {
	h := newHarness(b, 6, matureConfig(60))
	h.setPartition(h.all())
	h.pump()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Each half covers all 60 groups, so the merge resolves 60 conflicts.
		h.setPartition(h.members[:3], h.members[3:])
		h.pump()
		h.setPartition(h.all())
		h.pump()
	}
}

// BenchmarkFailAndMergeRound is the membership_churn shape without gcs under
// it: twelve engines and a hundred groups lose one member, reallocate its
// share, and take it back still holding what it had.
func BenchmarkFailAndMergeRound(b *testing.B) {
	h := newHarness(b, 12, matureConfig(100))
	h.setPartition(h.all())
	h.pump()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.setPartition(h.members[:11])
		h.pump()
		h.setPartition(h.all())
		h.pump()
	}
}

func BenchmarkBalanceDecision(b *testing.B) {
	cfg := matureConfig(100)
	cfg.BalanceTimeout = time.Second
	h := newHarness(b, 4, cfg)
	a := h.members[0]
	h.setPartition([]core.MemberID{a})
	h.pump()
	h.setPartition(h.all())
	h.pump()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.engines[a].TriggerBalance(); err != nil {
			b.Fatal(err)
		}
		h.pump()
	}
}
