package main

import (
	"fmt"
	"net/netip"
	"time"

	"wackamole/internal/experiment"
	"wackamole/internal/flow"
	"wackamole/internal/gcs"
	"wackamole/internal/load"
)

// steady_traffic: the traffic fast path and nothing else. One web cluster
// (4 servers, 10 VIPs) with a flow server on every server and one open-loop
// load engine (2 000 clients, Poisson 20 000 rps, 64-byte payload), no
// fault. After a 2 s simulated warm-up every op advances the simulation by
// 100 ms.
type steadyWorkload struct {
	wc     *experiment.WebCluster
	engine *load.Engine
	// seen is how many completions earlier ops have already classified.
	seen int
	// lost is the engine's ConnsLost reading at the end of the previous op.
	lost uint64
	// lastOK is the instant of the latest ok completion seen; maxGap is the
	// longest wait between two of them so far.
	lastOK time.Time
	maxGap time.Duration
}

const (
	steadyServers = 4
	steadyWarmup  = 2 * time.Second
	steadyStep    = 100 * time.Millisecond
)

// The client population; variables only so the unit tests can shrink them.
var (
	steadyClients = 2000
	steadyRPS     = 20000.0
)

// 25 ops per budget second: at the default 12 s, 300 ops (30 simulated
// seconds) ≈ 1.6 s per pass at the ≈ 20 simulated seconds per wall second
// of the reference box.
func (w *steadyWorkload) opsFor(seconds int) int { return 25 * seconds }

func (w *steadyWorkload) cycle() int { return 1 }

func (w *steadyWorkload) prepare(seed int64, ops int) error {
	wc, err := experiment.NewWebCluster(seed, steadyServers, gcs.TunedConfig())
	if err != nil {
		return err
	}
	for _, srv := range wc.Servers {
		if _, err := flow.NewServer(srv.Host, experiment.FlowPort, flow.ServerConfig{}); err != nil {
			return err
		}
	}
	engine, err := load.New(wc.ClientHost, load.Config{
		Clients:   steadyClients,
		Mode:      load.Open,
		RPS:       steadyRPS,
		Target:    netip.AddrPortFrom(wc.Target, experiment.FlowPort),
		LocalPort: experiment.LoadClientPort,
	})
	if err != nil {
		return err
	}
	wc.Settle()
	engine.Start()
	wc.RunFor(steadyWarmup)
	engine.ResetStats()
	w.wc, w.engine, w.seen, w.lost = wc, engine, 0, 0
	w.lastOK, w.maxGap = engine.Epoch(), 0
	return nil
}

func (w *steadyWorkload) do(i int) (opOut, time.Duration) {
	before := clusterCounts(w.wc.Cluster)
	elapsed := w.wc.Sim.Elapsed()

	t0 := time.Now()
	w.wc.RunFor(steadyStep)
	d := time.Since(t0)

	var out opOut
	out.counts = clusterCounts(w.wc.Cluster).since(before)
	out.simElapsed = w.wc.Sim.Elapsed() - elapsed
	out.pendingPeak = uint64(w.wc.Sim.Pending())
	// Stats and Completions are read-only snapshots: nothing is reset, so
	// the engine runs exactly as it does under wackload. The op's service
	// gap is the longest wait for an ok completion inside its window, the
	// wait still open at the window's end included.
	done := w.engine.Completions()
	for _, c := range done[w.seen:] {
		out.requests[c.Class]++
		if c.Class == load.ClassOK {
			if gap := c.At.Sub(w.lastOK); gap > out.interruption {
				out.interruption = gap
			}
			w.lastOK = c.At
		}
	}
	w.seen = len(done)
	if tail := w.wc.Sim.Now().Sub(w.lastOK); tail > out.interruption {
		out.interruption = tail
	}
	if out.interruption > w.maxGap {
		w.maxGap = out.interruption
	}
	st := w.engine.Stats()
	out.connsLost = st.ConnsLost - w.lost
	w.lost = st.ConnsLost
	bad := out.requests[load.ClassReset] + out.requests[load.ClassTimeout] + out.requests[load.ClassStale]
	switch {
	case bad > 0:
		out.fail = fmt.Sprintf("%d requests did not complete ok without any fault", bad)
	case out.requests[load.ClassOK] == 0:
		out.fail = "no request completed"
	case st.MaxOKGap != w.maxGap:
		out.fail = fmt.Sprintf("the engine reports a longest ok-gap of %v, its completion log says %v", st.MaxOKGap, w.maxGap)
	}
	return out, d
}

func (w *steadyWorkload) spans() map[string][]time.Duration { return nil }

func (w *steadyWorkload) extras(m metricSet) {
	var rtts []time.Duration
	for _, c := range w.engine.Completions() {
		if c.Class == load.ClassOK {
			rtts = append(rtts, c.RTT)
		}
	}
	q := percentiles(millis(rtts), 50, 99)
	m["load.sim_latency_ms_p50"], m["load.sim_latency_ms_p99"] = q[0], q[1]
}

func (w *steadyWorkload) release() {
	if w.engine != nil {
		w.engine.Stop()
	}
	w.wc, w.engine = nil, nil
}
