package check

import (
	"math/rand"
	"sort"
	"time"
)

// GenConfig shapes schedule generation.
type GenConfig struct {
	// Servers and VIPs set the cluster size (defaults 5 and 10).
	Servers int
	VIPs    int
	// Steps is the number of fault events to generate (default 12).
	Steps int
	// Gray enables gray-failure shape events (opShape/opClear): flapping
	// links, lossy-but-alive links and CPU-starved daemons drawn from a
	// fixed parameter table. The generator keeps at most one program per
	// server and appends trailing clears so every schedule ends clean.
	// Leaving Gray off keeps generation byte-identical to earlier versions
	// for any given seed.
	Gray bool
}

func (g GenConfig) withDefaults() GenConfig {
	if g.Servers <= 0 {
		g.Servers = 5
	}
	if g.VIPs <= 0 {
		g.VIPs = 10
	}
	if g.Steps <= 0 {
		g.Steps = 12
	}
	return g
}

// minGap and maxGap bound the spacing between consecutive events: 500ms
// and 5.5s. Gaps shorter than the fault-detection timeout deliberately
// overlap reconfigurations.
const (
	minGap = 500 * time.Millisecond
	maxGap = minGap + 5*time.Second
)

// Generate derives a valid-by-construction fault program from seed alone:
// the same (seed, config) pair always yields the same schedule, and the
// generator's random source is private to it, so generation never perturbs
// the simulation's own randomness. Validity means the program keeps a
// majority-free invariant the oracles rely on: at most servers-2 interfaces
// down at once, partitions always two-sided and non-empty, restores only of
// servers actually down.
func Generate(seed int64, cfg GenConfig) Schedule {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	n := cfg.Servers

	down := map[int]bool{}
	left := map[int]bool{}
	shaped := map[int]bool{}
	partitioned := false
	inService := n
	// At most one graceful departure per schedule, and only while more
	// than two servers remain in service.
	leftAllowed := true
	// Gray mode widens the draw range by two (shape, clear); non-gray
	// configs keep the historical range so existing seeds replay unchanged.
	ops := 7
	if cfg.Gray {
		ops = 9
	}

	s := Schedule{Seed: seed, Servers: n, VIPs: cfg.VIPs}
	at := time.Duration(0)
	for step := 0; step < cfg.Steps; step++ {
		// Millisecond-round offsets keep serialized schedules readable
		// without costing any generality.
		gap := minGap + time.Duration(rng.Int63n(int64(maxGap-minGap)))
		at += gap.Truncate(time.Millisecond)
		ev := Event{At: at}
		// Draw until an applicable operation comes up; every state admits
		// fail/sever/jitter targets as long as two servers remain up, so
		// this terminates.
		for {
			switch rng.Intn(ops) {
			case 0: // fail
				cand := pickServer(rng, n, func(i int) bool { return !down[i] && !shaped[i] })
				if len(down) >= n-2 || cand < 0 {
					continue
				}
				down[cand] = true
				ev.Op, ev.Server = opFail, cand
			case 1: // restore
				cand := pickServer(rng, n, func(i int) bool { return down[i] })
				if cand < 0 {
					continue
				}
				delete(down, cand)
				ev.Op, ev.Server = opRestore, cand
			case 2: // partition
				if partitioned || n < 2 {
					continue
				}
				var mask uint64
				if n < MaxServers {
					mask = uint64(rng.Int63n(int64(1)<<uint(n)-2) + 1)
				} else {
					// 1<<64 overflows: draw all 64 bits and reject the
					// two one-sided masks.
					for mask == 0 || mask == ^uint64(0) {
						mask = rng.Uint64()
					}
				}
				partitioned = true
				ev.Op, ev.Mask = opPartition, mask
			case 3: // heal
				if !partitioned {
					continue
				}
				partitioned = false
				ev.Op = opHeal
			case 4: // sever
				cand := pickServer(rng, n, func(i int) bool { return !down[i] && !left[i] })
				if cand < 0 {
					continue
				}
				ev.Op, ev.Server = opSever, cand
			case 5: // leave
				cand := pickServer(rng, n, func(i int) bool { return !down[i] && !left[i] })
				if !leftAllowed || inService <= 2 || cand < 0 {
					continue
				}
				left[cand] = true
				inService--
				leftAllowed = false
				ev.Op, ev.Server = opLeave, cand
			case 6: // jitter window
				cand := pickServer(rng, n, func(i int) bool { return !left[i] && !shaped[i] })
				if cand < 0 {
					continue
				}
				ev.Op, ev.Server = opJitter, cand
			case 7: // gray shape (Gray mode only)
				cand := pickServer(rng, n, func(i int) bool { return !down[i] && !left[i] && !shaped[i] })
				if cand < 0 {
					continue
				}
				shaped[cand] = true
				ev.Op, ev.Server = opShape, cand
				ev.Shape = grayShapes[rng.Intn(len(grayShapes))]
			case 8: // clear shape (Gray mode only)
				cand := pickServer(rng, n, func(i int) bool { return shaped[i] })
				if cand < 0 {
					continue
				}
				delete(shaped, cand)
				ev.Op, ev.Server = opClear, cand
			}
			break
		}
		s.Events = append(s.Events, ev)
	}
	// Trailing clears: every schedule ends with clean interfaces, so the
	// settle-bound oracles judge a cluster that is allowed to re-converge.
	// (Run stops leftover bindings anyway — this keeps the invariant visible
	// in the serialized schedule itself, shrunk variants included.)
	for _, i := range sortedKeys(shaped) {
		gap := minGap + time.Duration(rng.Int63n(int64(maxGap-minGap)))
		at += gap.Truncate(time.Millisecond)
		s.Events = append(s.Events, Event{At: at, Op: opClear, Server: i})
	}
	return s
}

// grayShapes is the fixed parameter table gray generation draws from:
// two flap cadences bracketing the tuned fault-detection timeout, two
// asymmetric lossy-but-alive links, and two CPU-starvation strengths.
var grayShapes = []string{
	"flap(period=800ms,duty=0.5,jitter=20ms)",
	"flap(period=2.4s,duty=0.67,jitter=50ms)",
	"graylink(rxloss=0.3,txloss=0.05,rxdelay=2ms,txdelay=0s)",
	"graylink(rxloss=0.15,txloss=0.15,rxdelay=0s,txdelay=5ms)",
	"slownode(stall=40ms)",
	"slownode(stall=90ms)",
}

func sortedKeys(m map[int]bool) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// pickServer draws uniformly among the servers satisfying ok, or -1 when
// none do. Candidates are collected in sorted index order so the draw is
// deterministic.
func pickServer(rng *rand.Rand, n int, ok func(int) bool) int {
	cand := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if ok(i) {
			cand = append(cand, i)
		}
	}
	if len(cand) == 0 {
		return -1
	}
	sort.Ints(cand)
	return cand[rng.Intn(len(cand))]
}
