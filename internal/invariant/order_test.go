package invariant

import (
	"fmt"
	"math/rand"
	"testing"
)

// batchOrderInversion is the reference model for the cross-node half of the
// view-order oracle: the batch sweep over every node's full installation
// history. For each node pair (a, b), the positions in a's history of the
// views b also installed must rise strictly along b's history.
func batchOrderInversion(hists [][]string) bool {
	for a := range hists {
		pos := make(map[string]int, len(hists[a]))
		for idx, id := range hists[a] {
			pos[id] = idx
		}
		for b := a + 1; b < len(hists); b++ {
			lastPos := -1
			for _, id := range hists[b] {
				p, ok := pos[id]
				if !ok {
					continue
				}
				if p <= lastPos {
					return true
				}
				lastPos = p
			}
		}
	}
	return false
}

// TestOnViewMatchesBatchOrderSweep pins that checking order on each install
// loses nothing against the batch sweep. Seeded random runs give each node a
// subsequence of one global view order (so view IDs are shared across
// nodes), occasionally swap two of one node's installs, interleave the nodes
// at random and re-observe a node's current view now and then. Each node
// installs fewer than viewHistory views, so nothing is forgotten, and
// onView must raise view-order exactly when the sweep over the full
// histories finds an inversion. Engines install each view once, so a
// history holds each ID at most once and a re-observation is no install.
func TestOnViewMatchesBatchOrderSweep(t *testing.T) {
	const views = 40
	inverted, consistent := 0, 0
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nodes := 2 + rng.Intn(4)
		hists := make([][]string, nodes)
		for n := range hists {
			for v := 0; v < views; v++ {
				if rng.Intn(3) > 0 {
					hists[n] = append(hists[n], fmt.Sprintf("v%d", v))
				}
			}
			if h := hists[n]; len(h) > 1 && rng.Intn(4*nodes) == 0 {
				k := rng.Intn(len(h) - 1)
				j := k + 1 + rng.Intn(len(h)-k-1)
				h[k], h[j] = h[j], h[k]
			}
		}

		m := testMonitor(nodes, Config{})
		next := make([]int, nodes)
		remaining := 0
		for _, h := range hists {
			if len(h) > 0 {
				remaining++
			}
		}
		for remaining > 0 {
			n := rng.Intn(nodes)
			switch {
			case next[n] > 0 && rng.Intn(5) == 0:
				m.onView(n, view(hists[n][next[n]-1], "a"))
			case next[n] < len(hists[n]):
				m.onView(n, view(hists[n][next[n]], "a"))
				if next[n]++; next[n] == len(hists[n]) {
					remaining--
				}
			}
		}

		want := batchOrderInversion(hists)
		v := m.Violation()
		got := v != nil && v.Oracle == oracleViewOrder
		if got != want || (v != nil && !got) {
			t.Fatalf("seed %d: onView violation %v, batch sweep finds an inversion: %v\nhistories %q",
				seed, v, want, hists)
		}
		if d := m.Dropped(); d != 0 {
			t.Fatalf("seed %d: Dropped() = %d with histories under the bound", seed, d)
		}
		if want {
			inverted++
		} else {
			consistent++
		}
	}
	if inverted < 20 || consistent < 20 {
		t.Fatalf("generator skewed: %d runs with an inversion, %d without", inverted, consistent)
	}
}
