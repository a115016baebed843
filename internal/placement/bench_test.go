package placement

import "testing"

// BenchmarkPlacementDecision measures one steady-state balance decision of
// the minimal-move policy — the planning path the representative runs on
// every balance timer tick and view change. Pinned at 0 allocs/op: the
// policy owns reusable scratch and the plan is written into the caller's
// slice, so planning never pressures the GC no matter how often the
// cluster reconfigures.
func BenchmarkPlacementDecision(b *testing.B) {
	w := newWorld(32, 5)
	p := newMinimal()
	dst := p.Balance(w.input(), nil)
	w.apply(dst)
	in := w.input()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = p.Balance(in, dst)
	}
}
