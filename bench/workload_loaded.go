package main

import (
	"fmt"
	"time"

	"wackamole/internal/experiment"
	"wackamole/internal/flow"
	"wackamole/internal/gcs"
	"wackamole/internal/load"
	"wackamole/internal/metrics"
	"wackamole/internal/sim"
)

// loaded_failover_observed: a NIC fault under traffic with every observer
// plane armed. Each op is one experiment.AvailabilityTrial: 4 servers,
// 1 000 clients, open loop at 10 000 rps, 1 s warm-up, 2 s fault-free
// window, then the owner's NIC fails. Invariants, Trace, Telemetry and a
// metrics.Registry are all on.
type loadedWorkload struct {
	seeds []int64
	bare  bool
}

const (
	loadedServers  = 4
	loadedWarmup   = time.Second
	loadedPreFault = 2 * time.Second
)

// The client population; variables only so the unit tests can shrink them.
var (
	loadedClients = 1000
	loadedRPS     = 10000.0
)

// One op per four budget seconds: at the default 12 s, 3 ops ≈ 2 s per pass
// at ≈ 0.65 s per op on the reference box.
func (w *loadedWorkload) opsFor(seconds int) int {
	if seconds < 4 {
		return 1
	}
	return seconds / 4
}

func (w *loadedWorkload) setBare(bare bool) { w.bare = bare }

func (w *loadedWorkload) config(reg *metrics.Registry) experiment.AvailabilityConfig {
	cfg := experiment.AvailabilityConfig{
		Servers:   loadedServers,
		Clients:   loadedClients,
		Mode:      load.Open,
		RPS:       loadedRPS,
		Fault:     experiment.FaultNIC,
		GCS:       gcs.TunedConfig(),
		Warmup:    loadedWarmup,
		PreFault:  loadedPreFault,
		PostFault: postFault(gcs.TunedConfig(), loadedPreFault),
	}
	if !w.bare {
		cfg.Invariants, cfg.Trace, cfg.Telemetry, cfg.Metrics = true, true, true, reg
	}
	return cfg
}

func (w *loadedWorkload) cycle() int { return 1 }

func (w *loadedWorkload) prepare(seed int64, ops int) error {
	w.seeds = make([]int64, ops)
	for i := range w.seeds {
		w.seeds[i] = seed + seedStride*int64(i)
	}
	// Warm the heap with a small trial of the same shape, under a seed no
	// timed op uses.
	cfg := w.config(metrics.New())
	cfg.Clients, cfg.RPS = 50, 500
	_, _, err := experiment.AvailabilityTrial(seed-1, cfg)
	return err
}

func (w *loadedWorkload) do(i int) (opOut, time.Duration) {
	// A registry per op, so its counters are the op's own.
	reg := metrics.New()
	cfg := w.config(reg)

	t0 := time.Now()
	sample, res, err := experiment.AvailabilityTrial(w.seeds[i], cfg)
	d := time.Since(t0)

	var out opOut
	if err != nil {
		out.fail = err.Error()
		return out, d
	}
	out.interruption = res.Interruption
	// The trial's measured window closes PostFault after the fault; the
	// settled-state probing that follows is monitoring only.
	out.simElapsed = res.FaultAt.Sub(sim.Epoch) + cfg.PostFault
	sm := sample.Metrics
	out.counts = counts{
		frames: sm.FramesSent, framesDropped: sm.FramesDropped, arpSpoofs: sm.ARPSpoofs,
		tokens: sm.TokenRotations, memberships: sm.MembershipsInstalled, reconfigs: sm.ViewChanges,
		delivered: sm.MessagesDelivered, acquires: sm.Acquires, releases: sm.Releases,
		moves:           res.Moves,
		requests:        res.Stats.Requests,
		connsLost:       res.Stats.ConnsLost,
		falseSuspicions: uint64(res.FalseSuspicions),
		detectLatency:   res.DetectionLatency,
	}
	if !w.bare {
		fc, fs := flow.RegisterClientMetrics(reg), flow.RegisterServerMetrics(reg)
		out.flowRetransmits = fc.Retransmits.Value()
		out.flowConnsOpened = fc.ConnsOpened.Value()
		out.flowRSTs = fs.RSTsSent.Value()
		lat := load.Register(reg).Latency.Snapshot()
		out.latP50, out.latP99 = lat.QuantileDuration(0.5), lat.QuantileDuration(0.99)
		if sample.Trace != nil {
			out.phases = sample.Trace.Phases
		}
	}
	switch {
	case res.Violation != nil:
		out.fail = fmt.Sprintf("invariant violation: %v", res.Violation)
	case res.Recovery < 0.99:
		out.fail = fmt.Sprintf("goodput recovered to only %.3f of its pre-fault level", res.Recovery)
	}
	return out, d
}

func (w *loadedWorkload) spans() map[string][]time.Duration { return nil }

func (w *loadedWorkload) extras(metricSet) {}

func (w *loadedWorkload) release() {}

// postFault is AvailabilityConfig's default post-fault window, spelled out
// so the bench knows exactly how much simulated time a trial advances.
func postFault(cfg gcs.Config, preFault time.Duration) time.Duration {
	return 4*(cfg.FaultDetectTimeout+cfg.DiscoveryTimeout) + preFault + time.Second
}
