package main

import (
	"fmt"
	"math/rand"
	"time"

	"wackamole"
)

// membership_churn: one long-lived cluster (12 servers, 100 VIPs — the
// address plan's maximum — under the default least-loaded placement),
// settled once, then cycled through four kinds of membership change. Every
// op injects one change, runs 5 simulated seconds, undoes it and runs 5
// more. The victim is the current owner of a seed-chosen VIP, so every op
// moves addresses.
type churnWorkload struct {
	c    *wackamole.Cluster
	seed int64
	// lastChange is the simulated instant of the latest ownership change
	// on any server, fed by every engine's ownership hook.
	lastChange time.Duration
	sp         map[string][]time.Duration
}

const (
	churnServers = 12
	churnVIPs    = 100
	churnHold    = 5 * time.Second
)

// churnKinds cycle in this order. "sever" cuts the engine's session to its
// daemon (§4.2: the engine drops every address and reconnects a second
// later by itself), the nearest thing to a process crash the harness can
// undo: netsim's Host.Crash discards the host's pending timers, so a
// crashed daemon never resumes after Restart.
var churnKinds = []string{"fail", "partition", "sever", "leave"}

// 7 ops per budget second in whole cycles of the four kinds: at the default
// 12 s, 84 ops ≈ 1.9 s per pass at ≈ 23 ms per op on the reference box.
func (w *churnWorkload) opsFor(seconds int) int {
	n := 7 * seconds / len(churnKinds) * len(churnKinds)
	if n < len(churnKinds) {
		n = len(churnKinds)
	}
	return n
}

func (w *churnWorkload) cycle() int { return len(churnKinds) }

func (w *churnWorkload) prepare(seed int64, ops int) error {
	w.seed = seed
	w.lastChange = 0
	w.sp = map[string][]time.Duration{}
	var c *wackamole.Cluster
	c, err := wackamole.NewCluster(wackamole.ClusterOptions{
		Seed:    seed,
		Servers: churnServers,
		VIPs:    churnVIPs,
		OnNode: func(i int, n *wackamole.Node) {
			n.Engine().AddOwnershipHook(func(string, bool, string) { w.lastChange = c.Sim.Elapsed() })
		},
	})
	if err != nil {
		return err
	}
	c.Settle()
	if bad := uncovered(c); bad != "" {
		return fmt.Errorf("cluster did not form: %s", bad)
	}
	w.c = c
	return nil
}

func (w *churnWorkload) do(i int) (opOut, time.Duration) {
	c := w.c
	var out opOut
	rng := rand.New(rand.NewSource(w.seed + seedStride*int64(i)))
	victim, holders := c.Owner(wackamole.VIPAddr(rng.Intn(churnVIPs)))
	if holders != 1 {
		out.fail = fmt.Sprintf("op starts with %d holders of its VIP", holders)
		return out, 0
	}
	kind := churnKinds[i%len(churnKinds)]
	var inject, undo func() error
	switch kind {
	case "fail":
		inject = func() error { c.FailServer(victim); return nil }
		undo = func() error { c.RestoreServer(victim); return nil }
	case "partition":
		perm := rng.Perm(churnServers)
		inject = func() error { c.Partition(perm[:churnServers/2], perm[churnServers/2:]); return nil }
		undo = func() error { c.Heal(); return nil }
	case "sever":
		inject = func() error { c.Servers[victim].Node.Session().Sever(); return nil }
		undo = func() error { return nil } // the node reconnects by itself
	case "leave":
		inject = c.Servers[victim].Node.LeaveService
		undo = c.Servers[victim].Node.JoinService
	}

	before := clusterCounts(c)
	start := c.Sim.Elapsed()
	peak := c.Sim.Pending()

	t0 := time.Now()
	err := inject()
	t1 := time.Now()
	c.RunFor(churnHold)
	t2 := time.Now()
	changedAt := w.lastChange
	if p := c.Sim.Pending(); p > peak {
		peak = p
	}
	if err == nil {
		err = undo()
	}
	c.RunFor(churnHold)
	t3 := time.Now()

	w.sp["experiment.inject_ms_p50"] = append(w.sp["experiment.inject_ms_p50"], t1.Sub(t0))
	w.sp["experiment.reconverge_ms_p50"] = append(w.sp["experiment.reconverge_ms_p50"], t2.Sub(t1))
	w.sp["experiment.undo_ms_p50"] = append(w.sp["experiment.undo_ms_p50"], t3.Sub(t2))

	out.counts = clusterCounts(c).since(before)
	out.simElapsed = c.Sim.Elapsed() - start
	if p := c.Sim.Pending(); p > peak {
		peak = p
	}
	out.pendingPeak = uint64(peak)
	// The service gap of a membership change: from the injection to the
	// last address that changed hands before the undo.
	if changedAt > start {
		out.interruption = changedAt - start
	}
	switch bad := uncovered(c); {
	case err != nil:
		out.fail = fmt.Sprintf("%s: %v", kind, err)
	case bad != "":
		out.fail = fmt.Sprintf("%s: %s", kind, bad)
	case out.interruption == 0:
		out.fail = fmt.Sprintf("%s of an owner moved no address", kind)
	}
	return out, t3.Sub(t0)
}

func (w *churnWorkload) spans() map[string][]time.Duration { return w.sp }

func (w *churnWorkload) extras(metricSet) {}

func (w *churnWorkload) release() { w.c = nil }
