package main

import (
	"fmt"

	"wackamole"
)

func newWorkload(name string) (workload, error) {
	switch name {
	case "failover_sweep":
		return &sweepWorkload{}, nil
	case "steady_traffic":
		return &steadyWorkload{}, nil
	case "loaded_failover_observed":
		return &loadedWorkload{}, nil
	case "membership_churn":
		return &churnWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// clusterCounts snapshots every public counter of a cluster the bench holds:
// the simulator's, the network's, and each server's daemon and engine
// counters summed. All are cumulative since construction.
func clusterCounts(c *wackamole.Cluster) counts {
	nc := c.Net.Counters()
	out := counts{
		full:   true,
		events: c.Sim.Fired(),
		frames: nc.FramesSent, framesDropped: nc.FramesDropped, arpSpoofs: nc.ARPSpoofs,
	}
	for _, srv := range c.Servers {
		ds := srv.Node.Daemon().Stats()
		out.tokens += ds.TokensForwarded
		out.memberships += ds.MembershipsInstalled
		out.reconfigs += ds.Reconfigurations
		out.delivered += ds.DataDelivered
		out.retransmitted += ds.DataRetransmitted
		out.flushes += ds.RecoveryFlushes
		es := srv.Node.Engine().Stats()
		out.acquires += es.Acquires
		out.releases += es.Releases
		out.announces += es.Announces
		out.moves += es.Moves
		if es.Skew > out.skewMax {
			out.skewMax = es.Skew
		}
	}
	return out
}

// since returns the activity between two snapshots of one cluster. Levels
// (skew) keep the later reading.
func (c counts) since(before counts) counts {
	c.events -= before.events
	c.frames -= before.frames
	c.framesDropped -= before.framesDropped
	c.arpSpoofs -= before.arpSpoofs
	c.tokens -= before.tokens
	c.memberships -= before.memberships
	c.reconfigs -= before.reconfigs
	c.delivered -= before.delivered
	c.retransmitted -= before.retransmitted
	c.flushes -= before.flushes
	c.acquires -= before.acquires
	c.releases -= before.releases
	c.announces -= before.announces
	c.moves -= before.moves
	return c
}

// add accumulates one op's counters into a workload total. Levels (pending
// peak, skew) keep their maximum.
func (c *counts) add(o counts) {
	c.full = c.full || o.full
	c.events += o.events
	c.frames += o.frames
	c.framesDropped += o.framesDropped
	c.arpSpoofs += o.arpSpoofs
	c.tokens += o.tokens
	c.memberships += o.memberships
	c.reconfigs += o.reconfigs
	c.delivered += o.delivered
	c.retransmitted += o.retransmitted
	c.flushes += o.flushes
	c.acquires += o.acquires
	c.releases += o.releases
	c.announces += o.announces
	c.moves += o.moves
	for k, r := range o.requests {
		c.requests[k] += r
	}
	c.connsLost += o.connsLost
	c.flowRetransmits += o.flowRetransmits
	c.flowRSTs += o.flowRSTs
	c.flowConnsOpened += o.flowConnsOpened
	c.falseSuspicions += o.falseSuspicions
	if o.pendingPeak > c.pendingPeak {
		c.pendingPeak = o.pendingPeak
	}
	if o.skewMax > c.skewMax {
		c.skewMax = o.skewMax
	}
}

// uncovered checks the paper's Property 1 on a settled cluster: every
// virtual address is held by exactly one reachable server. It returns a
// description of the first violation, or "".
func uncovered(c *wackamole.Cluster) string {
	for _, vip := range c.VIPs() {
		if _, holders := c.Owner(vip); holders != 1 {
			return fmt.Sprintf("%v has %d reachable holders after settling", vip, holders)
		}
	}
	return ""
}
