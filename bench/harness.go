package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"wackamole/internal/load"
	"wackamole/internal/obs"
)

// harness.go is the measurement protocol every workload shares: a fixed,
// seed-derived op list executed in several passes, the per-op minimum over
// the passes as the op's host time, a determinism check between passes, and
// the reduction of all of it to named metrics.

// timedPasses is how often the op list is executed untraced. Each op is
// deterministic, so the minimum over the passes filters noisy-neighbour
// bursts; the set-up that precedes every pass gives setup_s one sample per
// pass. Six short passes repeat better than three long ones: on the
// reference box four same-seed failover_sweep runs ranged over 7.5 % of
// their ops_per_s at 3 × 360 ops and over 1.7 % at 6 × 180.
const timedPasses = 6

// tracedUntracedPasses is the untraced pass count of the traced run, which
// spends its time on the profiled passes: three still give a minimum and a
// spread.
const tracedUntracedPasses = 3

// memPassShare is the share of the op list the allocation-profiled pass
// runs: one op in memPassShare.
const memPassShare = 20

// seedStride separates the seeds of consecutive ops: op i (or, in
// failover_sweep, trial i) runs under base + seedStride·i.
const seedStride = 7919

// counts are the simulated-world counters an op reports. Every field is a
// pure function of the op's seed.
type counts struct {
	events, frames, framesDropped, arpSpoofs                          uint64
	tokens, memberships, reconfigs, delivered, retransmitted, flushes uint64
	acquires, releases, announces, moves                              uint64
	requests                                                          [load.NumClasses]uint64
	connsLost                                                         uint64
	flowRetransmits, flowRSTs, flowConnsOpened                        uint64
	falseSuspicions                                                   uint64
	pendingPeak                                                       uint64
	skewMax                                                           int64
	// full says the bench held the cluster and read every counter above;
	// an opaque trial function returns only the nine of runner.Metrics.
	full bool
	// detectLatency and phases are zero when the op has no traced
	// fail-over to decompose.
	detectLatency time.Duration
	phases        obs.Breakdown
	// latP50/latP99 are the op's request-latency quantiles where the op
	// owns a whole client population (loaded_failover_observed).
	latP50, latP99 time.Duration
}

// opOut is everything one op reports from the simulated world. It is
// comparable on purpose: the same op must return == values in every pass.
type opOut struct {
	// fail is why the op's output is wrong; empty when it is correct.
	fail string
	// interruption is the simulated service gap the op measured.
	interruption time.Duration
	// simElapsed is how much simulated time the op advanced.
	simElapsed time.Duration
	counts
}

// metricSet maps metric names to values; units live in spec.go.
type metricSet map[string]float64

// workload is one benchmark workload: a rig plus a fixed list of ops.
type workload interface {
	// opsFor sizes the op list for a --seconds budget: the count that makes
	// the timed passes take about that long on the reference box.
	opsFor(seconds int) int
	// cycle is the number of consecutive ops after which the op mix
	// repeats; opsFor returns a multiple of it.
	cycle() int
	// prepare derives the pass's inputs from seed and builds and warms
	// whatever the ops share. It runs before every pass, so each pass
	// starts from the same state; its host time is the pass's set-up.
	prepare(seed int64, ops int) error
	// do executes op i and returns its simulated outputs plus the host
	// time of the op proper (correctness checks excluded).
	do(i int) (opOut, time.Duration)
	// spans returns the host-time spans the last pass recorded around
	// public calls, one slice of per-op values per span name.
	spans() map[string][]time.Duration
	// extras adds the metrics only this workload can compute, from the
	// pass that ran last.
	extras(m metricSet)
	// release drops the last pass's rig, so the next set-up starts from a
	// heap without it.
	release()
}

// censuser is implemented by a workload whose timed ops are opaque trial
// functions: census re-composes every op from exported parts once, untimed,
// to read the simulator-level counters the trial functions do not return.
// The timed ops are then checked against it.
type censuser interface {
	census(seed int64, ops int, trace bool) error
}

// barer is implemented by a workload that can run the same ops with every
// observer plane off, for observers.overhead_ratio.
type barer interface {
	setBare(bare bool)
}

type params struct {
	workload string
	seed     int64
	seconds  int
	ops      int // tests only; 0: derive from seconds
	trace    bool
	// passes overrides the number of untraced passes (0: the protocol's).
	passes int
	// rigScale shrinks the isolated rigs' iteration counts (tests).
	rigScale float64
}

// passRecord is what one execution of the op list produced.
type passRecord struct {
	setup      time.Duration
	times      []time.Duration
	outs       []opOut
	mallocs    uint64
	allocBytes uint64
	spans      map[string][]time.Duration
}

func (p *passRecord) wall() time.Duration { return total(p.times) }

// result is one workload's outcome.
type result struct {
	Workload  string             `json:"workload"`
	Ops       int                `json:"ops"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	PassWalls []float64          `json:"pass_wall_s"`
	Notes     map[string]float64 `json:"notes,omitempty"`
	Metrics   map[string]metric  `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Clock string  `json:"clock"`
}

// runPass prepares the rig and executes the op list once. around, when
// set, brackets the op loop only (profilers attach there, so set-up is
// never attributed to a layer).
func runPass(w workload, p params, ops int, around func(loop func())) (*passRecord, error) {
	rec := &passRecord{times: make([]time.Duration, ops), outs: make([]opOut, ops)}
	// Set-up and ops each start from a collected heap, so neither pays for
	// the garbage of what ran before it.
	w.release()
	runtime.GC()
	t0 := time.Now()
	if err := w.prepare(p.seed, ops); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	rec.setup = time.Since(t0)
	runtime.GC()
	var before, after runtime.MemStats
	loop := func() {
		runtime.ReadMemStats(&before)
		for i := 0; i < ops; i++ {
			rec.outs[i], rec.times[i] = w.do(i)
		}
		runtime.ReadMemStats(&after)
	}
	if around != nil {
		around(loop)
	} else {
		loop()
	}
	rec.mallocs = after.Mallocs - before.Mallocs
	rec.allocBytes = after.TotalAlloc - before.TotalAlloc
	rec.spans = w.spans()
	return rec, nil
}

// runWorkload executes the whole protocol for one workload.
func runWorkload(p params) (*result, error) {
	w, err := newWorkload(p.workload)
	if err != nil {
		return nil, err
	}
	ops := p.ops
	if ops <= 0 {
		ops = w.opsFor(p.seconds)
	}
	loadavg := readLoadavg()

	var passes []*passRecord
	var censusTime time.Duration
	nPasses := timedPasses
	switch {
	case p.passes > 0:
		nPasses = p.passes
	case p.trace:
		nPasses = tracedUntracedPasses
	}
	if c, ok := w.(censuser); ok {
		// The timed ops are checked against the census, so it comes first;
		// it is a measurement of its own, not set-up.
		t0 := time.Now()
		if err := c.census(p.seed, ops, p.trace); err != nil {
			return nil, fmt.Errorf("census: %w", err)
		}
		censusTime = time.Since(t0)
	}
	for i := 0; i < nPasses; i++ {
		rec, err := runPass(w, p, ops, nil)
		if err != nil {
			return nil, err
		}
		passes = append(passes, rec)
	}

	res := &result{Workload: p.workload, Ops: ops, Notes: map[string]float64{}}
	m := metricSet{}
	m["bench.loadavg_start"] = loadavg
	if censusTime > 0 {
		res.Notes["census_s"] = censusTime.Seconds()
	}
	summarize(m, res, passes)
	w.extras(m)
	// Read before the profiled passes, whose bookkeeping inflates the heap.
	m["peak_rss_mb"] = readPeakRSSMiB()

	if p.trace {
		if err := tracedPasses(w, p, ops, passes, m, res); err != nil {
			return nil, err
		}
	}

	res.Metrics = map[string]metric{}
	for name, v := range m {
		spec, ok := specOf(name)
		if !ok {
			return nil, fmt.Errorf("metric %q is not in spec.go", name)
		}
		res.Metrics[name] = metric{Value: v, Unit: spec.Unit, Clock: spec.Clock}
	}
	return res, nil
}

// summarize reduces the untraced passes to the end-to-end metrics and the
// counter-derived per-layer metrics.
func summarize(m metricSet, res *result, passes []*passRecord) {
	ops := len(passes[0].outs)
	n := float64(ops)

	// Correctness: an op fails when any pass reports a failure or when its
	// simulated outputs are not identical in every pass.
	failed := map[int]string{}
	for pi, p := range passes {
		for i, o := range p.outs {
			if _, seen := failed[i]; seen {
				continue
			}
			switch {
			case o.fail != "":
				failed[i] = o.fail
			case o != passes[0].outs[i]:
				failed[i] = fmt.Sprintf("simulated outputs differ between pass 1 and pass %d", pi+1)
			}
		}
	}
	res.Failed = len(failed)
	for i := 0; i < ops && len(res.Failures) < 10; i++ {
		if why, ok := failed[i]; ok {
			res.Failures = append(res.Failures, fmt.Sprintf("op %d: %s", i, why))
		}
	}
	m["failed_share"] = float64(len(failed)) / n

	// Host time.
	var times [][]time.Duration
	var setups, mallocs, allocKB, walls []float64
	for _, p := range passes {
		times = append(times, p.times)
		setups = append(setups, p.setup.Seconds())
		mallocs = append(mallocs, float64(p.mallocs)/n)
		allocKB = append(allocKB, float64(p.allocBytes)/1024/n)
		walls = append(walls, p.wall().Seconds())
	}
	res.PassWalls = walls
	best := minOfPasses(times)
	wall := total(best).Seconds()
	m["setup_s"] = minOf(setups)
	res.Notes["setup_spread"] = (maxOf(setups) - minOf(setups)) / minOf(setups)
	m["ops_per_s"] = n / wall
	m["op_ms_p50"] = median(millis(best))
	m["allocs_per_op"] = median(mallocs)
	m["alloc_kb_per_op"] = median(allocKB)
	m["bench.pass_spread"] = (maxOf(walls) - minOf(walls)) / minOf(walls)

	// Simulated outputs, from pass 1 (every pass agrees, or the op failed).
	outs := passes[0].outs
	var c counts
	var simElapsed time.Duration
	var gaps, detect, latP50, latP99 []float64
	var phases [4][]float64
	for _, o := range outs {
		simElapsed += o.simElapsed
		gaps = append(gaps, o.interruption.Seconds())
		c.add(o.counts)
		if o.detectLatency > 0 {
			detect = append(detect, o.detectLatency.Seconds())
		}
		if o.phases != (obs.Breakdown{}) {
			phases[0] = append(phases[0], o.phases.Detection.Seconds())
			phases[1] = append(phases[1], o.phases.Membership.Seconds())
			phases[2] = append(phases[2], o.phases.StateSync.Seconds())
			phases[3] = append(phases[3], o.phases.ARPTakeover.Seconds())
		}
		if o.latP50 > 0 {
			latP50 = append(latP50, float64(o.latP50)/float64(time.Millisecond))
			latP99 = append(latP99, float64(o.latP99)/float64(time.Millisecond))
		}
	}
	m["sim_s_per_wall_s"] = simElapsed.Seconds() / wall
	m["sim_interruption_s_p50"] = median(gaps)
	m["sim_interruption_s_max"] = maxOf(gaps)
	m["sim_moves_per_op"] = float64(c.moves) / n
	m["sim_frames_per_op"] = float64(c.frames) / n
	res.Notes["sim_seconds"] = simElapsed.Seconds()
	res.Notes["op_ms_samples"] = n

	per := func(name string, v uint64) { m[name] = float64(v) / n }
	// Counters a workload cannot read from outside stay out of the set:
	// an opaque trial function returns no event count, a bare cluster has
	// no client population.
	if c.full {
		per("sim.events_per_op", c.events)
		m["sim.events_per_wall_s"] = float64(c.events) / wall
		m["sim.pending_peak"] = float64(c.pendingPeak)
	}
	m["netsim.frames_per_wall_s"] = float64(c.frames) / wall
	per("netsim.sim_frames_dropped_per_op", c.framesDropped)
	per("arp.sim_spoofs_per_op", c.arpSpoofs)
	per("gcs.sim_token_rotations_per_op", c.tokens)
	per("gcs.sim_memberships_per_op", c.memberships)
	per("gcs.sim_reconfigs_per_op", c.reconfigs)
	per("gcs.sim_data_delivered_per_op", c.delivered)
	per("core.sim_acquires_per_op", c.acquires)
	per("core.sim_releases_per_op", c.releases)
	if c.full {
		per("gcs.sim_data_retransmitted_per_op", c.retransmitted)
		per("gcs.sim_recovery_flushes_per_op", c.flushes)
		per("core.sim_announces_per_op", c.announces)
		m["placement.sim_skew_max"] = float64(c.skewMax)
	}
	var requests uint64
	for _, r := range c.requests {
		requests += r
	}
	if requests > 0 {
		per("load.requests_per_op", requests)
		m["load.requests_per_wall_s"] = float64(requests) / wall
		m["load.sim_ok_share"] = float64(c.requests[load.ClassOK]) / float64(requests)
		m["load.sim_reset_share"] = float64(c.requests[load.ClassReset]) / float64(requests)
		per("load.sim_conns_lost_per_op", c.connsLost)
	}
	if len(latP50) > 0 {
		m["load.sim_latency_ms_p50"] = median(latP50)
		m["load.sim_latency_ms_p99"] = median(latP99)
	}
	if c.flowConnsOpened > 0 {
		per("flow.sim_retransmits_per_op", c.flowRetransmits)
		per("flow.sim_rsts_per_op", c.flowRSTs)
		per("flow.sim_conns_opened_per_op", c.flowConnsOpened)
	}
	if len(detect) > 0 {
		m["gcs.sim_detect_latency_s_p50"] = median(detect)
		per("gcs.sim_false_suspicions_per_op", c.falseSuspicions)
	}
	if len(phases[0]) > 0 {
		m["obs.sim_phase_detect_s_p50"] = median(phases[0])
		m["obs.sim_phase_membership_s_p50"] = median(phases[1])
		m["obs.sim_phase_statesync_s_p50"] = median(phases[2])
		m["obs.sim_phase_arp_s_p50"] = median(phases[3])
	}

	// Spans: per-op minimum over the passes, then the median over ops.
	spanTimes := map[string][][]time.Duration{}
	for _, p := range passes {
		for name, ds := range p.spans {
			spanTimes[name] = append(spanTimes[name], ds)
		}
	}
	for name, perPass := range spanTimes {
		m[name] = median(millis(minOfPasses(perPass)))
	}
}

// tracedPasses runs the sampled-attribution passes and the isolated rigs.
func tracedPasses(w workload, p params, ops int, untraced []*passRecord, m metricSet, res *result) error {
	var times [][]time.Duration
	for _, u := range untraced {
		times = append(times, u.times)
	}
	untracedWall := total(minOfPasses(times))

	// CPU: one pass under the runtime's sampling profiler.
	var prof bytes.Buffer
	cpuPass, err := runPass(w, p, ops, func(loop func()) {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			panic(err) // only fails when a profile is already running
		}
		loop()
		pprof.StopCPUProfile()
	})
	if err != nil {
		return err
	}
	shares, err := cpuSharesByLayer(prof.Bytes())
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, l := range layers {
		m[l+".cpu_share"] = shares[l]
	}
	m["bench.trace_overhead"] = cpuPass.wall().Seconds() / untracedWall.Seconds()

	// Allocations: every allocation profiled, which costs tens of times
	// the untraced op, so only over the head of the op list — whole cycles
	// of the workload's op mix, so the per-op averages stay comparable.
	memOps := ops / memPassShare / w.cycle() * w.cycle()
	if memOps < w.cycle() {
		memOps = w.cycle()
	}
	var allocs map[string]float64
	memPass, err := runPass(w, p, memOps, func(loop func()) {
		allocs = allocsByLayer(loop)
	})
	if err != nil {
		return err
	}
	for _, l := range layers {
		m[l+".allocs_per_op"] = allocs[l] / float64(memOps)
	}
	res.Notes["mem_pass_ops"] = float64(memOps)
	res.Notes["mem_pass_allocs_per_op"] = float64(memPass.mallocs) / float64(memOps)
	res.Notes["mem_pass_tiny_allocs_per_op"] = allocs[tinyAllocs] / float64(memOps)
	res.Notes["mem_pass_overhead"] = (memPass.wall().Seconds() / float64(memOps)) / (untracedWall.Seconds() / float64(ops))

	if b, ok := w.(barer); ok {
		// Armed and bare passes alternate, so a slow phase of the box hits
		// both, and both sides are reduced the same way: per-op minimum wall
		// over per-op minimum wall.
		var sides [2][][]time.Duration
		defer b.setBare(false)
		for range untraced {
			for side, bare := range []bool{false, true} {
				b.setBare(bare)
				rec, err := runPass(w, p, ops, nil)
				if err != nil {
					return err
				}
				sides[side] = append(sides[side], rec.times)
			}
		}
		m["observers.overhead_ratio"] = total(minOfPasses(sides[0])).Seconds() / total(minOfPasses(sides[1])).Seconds()
	}

	for _, r := range rigsFor(p.workload) {
		r(m, p.rigScale)
	}
	return nil
}

func readLoadavg() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64)
	return v
}

// readPeakRSSMiB returns the process's VmHWM.
func readPeakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
