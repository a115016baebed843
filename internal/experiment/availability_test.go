package experiment

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"wackamole/internal/gcs"
	"wackamole/internal/load"
	"wackamole/internal/metrics"
	"wackamole/internal/placement"
)

// quickAvailability keeps unit-test trials small and fast.
func quickAvailability() AvailabilityConfig {
	return AvailabilityConfig{
		Clients:   50,
		Mode:      load.Closed,
		ThinkTime: 200 * time.Millisecond,
		PreFault:  2 * time.Second,
	}
}

// sweepAvailability sweeps the availability experiment of cfg: its
// aggregate row, then one row per trial.
func sweepAvailability(t *testing.T, seed int64, trials int, cfg AvailabilityConfig, opts ...Option) []Row {
	t.Helper()
	rows, err := Sweep(AvailabilityExperiment(cfg), Grid{Seed: seed, Trials: trials}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestAvailabilityTrialWebTakeover(t *testing.T) {
	reg := metrics.New()
	cfg := quickAvailability()
	cfg.Metrics = reg
	sample, res, err := AvailabilityTrial(1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sample.Value != res.Interruption || res.Interruption <= 0 {
		t.Fatalf("sample value %v vs interruption %v, want equal and positive", sample.Value, res.Interruption)
	}
	// The fault-free window must be clean.
	if res.Before.Completions == 0 || res.Before.Completions != res.Before.OK {
		t.Fatalf("fault-free window: %d completions, %d ok — want all ok", res.Before.Completions, res.Before.OK)
	}
	// The paper's connection-loss claim: established connections to the
	// failed server are lost (reset), and clients recover afterwards.
	if res.Stats.ConnsLost == 0 {
		t.Error("no connections lost at takeover")
	}
	if res.Stats.Requests[load.ClassReset] == 0 {
		t.Error("no requests classified reset at takeover")
	}
	if res.Recovery < 0.99 {
		t.Errorf("recovery = %v, want ≥ 0.99", res.Recovery)
	}
	if res.After.OK == 0 {
		t.Error("no ok completions after recovery")
	}
	// Traffic must have shifted to a different server after the takeover.
	if len(res.ByServer) < 2 {
		t.Errorf("responses came from %d servers, want ≥ 2 (takeover shifts traffic)", len(res.ByServer))
	}
	// The latency family the CLI exposes via -prom must be populated.
	if hist := reg.Snapshot().MergedHistogram("load_request_latency_seconds"); hist.Count() == 0 {
		t.Error("load_request_latency_seconds histogram family empty")
	}
	// Protocol activity was captured from the cluster.
	if sample.Metrics.ARPSpoofs == 0 {
		t.Error("no ARP spoofs recorded across a takeover")
	}
}

func TestAvailabilityTrialRouter(t *testing.T) {
	cfg := quickAvailability()
	cfg.Topology = topologyRouter
	cfg.Fault = faultCrash
	_, res, err := AvailabilityTrial(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Before.Completions == 0 || res.Before.Completions != res.Before.OK {
		t.Fatalf("fault-free window: %d completions, %d ok — want all ok", res.Before.Completions, res.Before.OK)
	}
	if res.Interruption <= 0 {
		t.Fatal("no interruption measured across the router crash")
	}
	// The server never died, so flows survive the routing fail-over: the
	// interruption shows up as timeouts/stale responses, not resets.
	if res.Stats.ConnsLost != 0 {
		t.Errorf("ConnsLost = %d across a router fail-over, want 0 (server state intact)", res.Stats.ConnsLost)
	}
	if res.Recovery < 0.99 {
		t.Errorf("recovery = %v, want ≥ 0.99", res.Recovery)
	}
}

// TestAvailabilityTrialRouterRejectsWebOnlyOptions: the router scenario has no
// wackamole.Cluster whose OnNode installs the health monitors (nor a
// placement policy or a rolling schedule), so asking for one fails before
// anything runs.
func TestAvailabilityTrialRouterRejectsWebOnlyOptions(t *testing.T) {
	for want, arm := range map[string]func(*AvailabilityConfig){
		"health monitors (Telemetry) require the web topology": func(c *AvailabilityConfig) { c.Telemetry = true },
		"the rolling fault requires the web topology":          func(c *AvailabilityConfig) { c.Fault = faultRolling },
		"placement selection requires the web topology":        func(c *AvailabilityConfig) { c.Placement = "minimal" },
	} {
		cfg := quickAvailability()
		cfg.Topology = topologyRouter
		arm(&cfg)
		if _, _, err := AvailabilityTrial(1, cfg); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("error = %v, want %q", err, want)
		}
	}
}

func TestAvailabilityTrialGraceful(t *testing.T) {
	cfg := quickAvailability()
	cfg.Fault = "graceful"
	_, res, err := AvailabilityTrial(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A graceful leave hands the address over before departing; the
	// disruption must be far below a crash-detection fail-over, and the
	// old server's connections are still reset by the new owner.
	if res.Interruption > 2*time.Second {
		t.Errorf("graceful-leave interruption = %v, implausibly large", res.Interruption)
	}
	if res.Recovery < 0.99 {
		t.Errorf("recovery = %v, want ≥ 0.99", res.Recovery)
	}
}

// TestGrayProgramOutlivingTheTrialIsStopped: a gray window longer than the
// trial leaves the fault program live when the measured window ends. The
// trial stops it there, as check.Run does before its settle bound, so the
// settled-state probe judges a clean link: with the owner's link still
// flapping, seed 7920 read 10.0.0.100 as held by nobody.
func TestGrayProgramOutlivingTheTrialIsStopped(t *testing.T) {
	cfg := AvailabilityConfig{
		Clients:    50,
		ThinkTime:  time.Second,
		Fault:      "flap",
		GrayWindow: 30 * time.Second,
		PostFault:  6 * time.Second,
		Invariants: true,
	}
	_, res, err := AvailabilityTrial(7920, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("invariant violation after a gray window outlived the trial: %v", res.Violation)
	}
}

func TestAvailabilityTrialRolling(t *testing.T) {
	for _, pol := range []string{"least-loaded", "minimal"} {
		t.Run(pol, func(t *testing.T) {
			cfg := quickAvailability()
			cfg.Fault = faultRolling
			cfg.Placement = pol
			cfg.Servers = 3
			cfg.Invariants = true
			_, res, err := AvailabilityTrial(11, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation != nil {
				t.Fatalf("invariant violation during rolling restart: %v", res.Violation)
			}
			if len(res.Phases) != 3 {
				t.Fatalf("phases = %d, want one per server (3)", len(res.Phases))
			}
			for i, ph := range res.Phases {
				if ph.Server != i {
					t.Errorf("phase %d restarted server %d, want in-order schedule", i, ph.Server)
				}
				if !ph.End.After(ph.Start) {
					t.Errorf("phase %d window [%v, %v] is empty", i, ph.Start, ph.End)
				}
				// Draining one of three servers must never stall the whole
				// cluster: survivors keep serving through every phase.
				if ph.OK == 0 {
					t.Errorf("phase %d: no ok completions while server %d restarted", i, ph.Server)
				}
				if ph.MaxOKGap <= 0 {
					t.Errorf("phase %d: no ok-gap measured", i)
				}
			}
			if res.Recovery < 0.99 {
				t.Errorf("recovery = %v after the full rolling schedule, want ≥ 0.99", res.Recovery)
			}
		})
	}
}

// TestRollingChurnVersusGoodput is the placement policies' contest on a
// rolling restart: 5 servers, 200 open-loop clients at 800 rps, 3 trials
// each. Both policies must recover and measure some disruption, and minimal
// placement must lower the cumulative disruption without moving more VIPs.
func TestRollingChurnVersusGoodput(t *testing.T) {
	if testing.Short() {
		t.Skip("two three-trial rolling sweeps")
	}
	extra := map[string]map[string]float64{}
	for _, pol := range []string{placement.NameLeastLoaded, placement.NameMinimal} {
		row := sweepAvailability(t, 1, 3, AvailabilityConfig{
			Servers:    5,
			Clients:    200,
			Mode:       load.Open,
			RPS:        800,
			Fault:      faultRolling,
			Placement:  pol,
			Invariants: true,
		})[0]
		extra[pol] = row.Extra
		if rec := row.Extra["recovery"]; rec < 0.99 {
			t.Errorf("%s: recovery %v < 0.99", pol, rec)
		}
		if row.Extra["disruption_total_s"] <= 0 {
			t.Errorf("%s: no disruption measured", pol)
		}
	}
	ll, mi := extra[placement.NameLeastLoaded], extra[placement.NameMinimal]
	t.Logf("disruption: least-loaded=%.4fs minimal=%.4fs; vip moves: least-loaded=%.0f minimal=%.0f",
		ll["disruption_total_s"], mi["disruption_total_s"], ll["vip_moves"], mi["vip_moves"])
	if mi["disruption_total_s"] >= ll["disruption_total_s"] {
		t.Error("minimal placement did not lower cumulative disruption")
	}
	if mi["vip_moves"] > ll["vip_moves"] {
		t.Error("minimal placement moved more VIPs than least-loaded")
	}
}

func TestAvailabilityRollingJSONCarriesPhases(t *testing.T) {
	cfg := quickAvailability()
	cfg.Fault = faultRolling
	cfg.Placement = "minimal"
	cfg.Servers = 2
	rows := sweepAvailability(t, 13, 1, cfg)
	if len(rows) != 2 {
		t.Fatalf("JSON rows = %d, want aggregate + trial", len(rows))
	}
	for _, r := range rows {
		if r.Extra["disruption_total_s"] <= 0 {
			t.Errorf("%s: disruption_total_s = %v, want > 0", r.Point, r.Extra["disruption_total_s"])
		}
		if _, okk := r.Extra["phase0_max_gap_s"]; !okk {
			t.Errorf("%s: missing phase0_max_gap_s", r.Point)
		}
	}
	if out := renderAvailability(rows[0]); !strings.Contains(out, "rolling phases") {
		t.Errorf("rendered table missing rolling-phase section:\n%s", out)
	}
}

func TestAvailabilityDeterministic(t *testing.T) {
	cfg := quickAvailability()
	run := func() (time.Duration, [load.NumClasses]uint64) {
		_, res, err := AvailabilityTrial(7, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Interruption, res.Stats.Requests
	}
	i1, r1 := run()
	i2, r2 := run()
	if i1 != i2 || r1 != r2 {
		t.Fatalf("same seed diverged: interruption %v/%v, completions by class %v/%v", i1, i2, r1, r2)
	}
}

func TestAvailabilitySweepAndJSON(t *testing.T) {
	rows := sweepAvailability(t, 1, 2, quickAvailability(), Parallel(2))
	rowData := rows[0]
	if rowData.Stat.N != 2 || len(availabilityResults(rowData)) != 2 {
		t.Fatalf("stat N = %d, results = %d, want 2 trials", rowData.Stat.N, len(availabilityResults(rowData)))
	}
	if len(rows) != 3 {
		t.Fatalf("JSON rows = %d, want 1 aggregate + 2 per-trial", len(rows))
	}
	if rows[0].Extra["reset"] == 0 {
		t.Error("aggregate row carries no reset count")
	}
	for _, r := range rows[1:] {
		if r.Extra["before_requests"] == 0 || r.Extra["before_requests"] != r.Extra["before_ok"] {
			t.Errorf("%s: fault-free window not clean: %+v", r.Point, r.Extra)
		}
		if r.Metrics.FramesSent == 0 || r.Metrics.TokenRotations == 0 || r.Metrics.Acquires == 0 {
			t.Errorf("%s: per-trial metrics not filled from the trial's sample: %+v", r.Point, r.Metrics)
		}
	}
	if sum := rows[1].Metrics.FramesSent + rows[2].Metrics.FramesSent; sum != rows[0].Metrics.FramesSent {
		t.Errorf("per-trial frames_sent sum to %d, aggregate says %d", sum, rows[0].Metrics.FramesSent)
	}
	var b bytes.Buffer
	if err := WriteNDJSON(&b, rows); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(b.String(), "\n"); got != 3 {
		t.Errorf("NDJSON lines = %d, want 3", got)
	}
	if out := renderAvailability(rowData); !strings.Contains(out, "conns lost") {
		t.Errorf("rendered table missing header: %q", out)
	}
}

func TestAvailabilityTraced(t *testing.T) {
	cfg := quickAvailability()
	cfg.Metrics = metrics.New()
	rows := sweepAvailability(t, 5, 1, cfg, WithTrace())
	row := rows[0]
	if len(row.Samples) != 1 || row.Samples[0].Trace == nil {
		t.Fatal("traced sweep produced no trace")
	}
	if len(row.Samples[0].Trace.Events) == 0 {
		t.Fatal("trace carries no events")
	}
	// Flow activity is counted on the registry, not traced: the takeover
	// shows as retransmissions into the dead interface and RSTs from the
	// new owner.
	snap := cfg.Metrics.Snapshot()
	for _, name := range []string{"flow_conns_opened_total", "flow_retransmits_total", "flow_conns_reset_total", "flow_rsts_sent_total"} {
		if f := snap.Family(name); f == nil || len(f.Series) != 1 || f.Series[0].Value == 0 {
			t.Errorf("%s = %+v, want the trial's flow activity counted", name, f)
		}
	}
	var b bytes.Buffer
	if err := WriteTrace(&b, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"record":"trial"`) || !strings.Contains(b.String(), `"kind":"install"`) {
		t.Error("trace NDJSON missing trial record or install events")
	}
}

// observedAvailability is the paper's §6 NIC fault under open-loop load with
// every observer plane on, at the given client population and rate.
func observedAvailability(clients int, rps float64) AvailabilityConfig {
	return AvailabilityConfig{
		Servers: 4, Clients: clients, Mode: load.Open, RPS: rps,
		Fault: FaultNIC, GCS: gcs.TunedConfig(),
		Warmup: time.Second, PreFault: 2 * time.Second,
		Invariants: true, Trace: true, Telemetry: true, Metrics: metrics.New(),
	}
}

// TestObserversDoNotPerturbAvailability: the planes only observe. A loaded
// trial with every plane armed (the trace and its latency registry, the
// invariant monitor, health telemetry and the caller's registry) measures
// exactly what the same seed measures with all of them off, and its sample
// still carries the four gcs/core latency families its row reports.
func TestObserversDoNotPerturbAvailability(t *testing.T) {
	observed := observedAvailability(100, 2000)
	bare := observed
	bare.Invariants, bare.Trace, bare.Telemetry, bare.Metrics = false, false, false, nil
	so, ro, err := AvailabilityTrial(1, observed)
	if err != nil {
		t.Fatal(err)
	}
	sb, rb, err := AvailabilityTrial(1, bare)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name           string
		observed, bare any
	}{
		{"Interruption", ro.Interruption, rb.Interruption},
		{"Stats", ro.Stats, rb.Stats},
		{"Before", ro.Before, rb.Before},
		{"During", ro.During, rb.During},
		{"After", ro.After, rb.After},
		{"ByServer", ro.ByServer, rb.ByServer},
		{"Moves", ro.Moves, rb.Moves},
		{"Sample.Metrics", so.Metrics, sb.Metrics},
	} {
		if !reflect.DeepEqual(c.observed, c.bare) {
			t.Errorf("%s: observed %+v, bare %+v", c.name, c.observed, c.bare)
		}
	}
	if ro.Interruption <= 0 || ro.Stats.ConnsLost == 0 {
		t.Fatalf("the fault went unnoticed: interruption %v, %d connections lost", ro.Interruption, ro.Stats.ConnsLost)
	}
	if so.Trace == nil || len(sb.Latency.Families) != 0 {
		t.Fatal("the observed trial carries no trace, or the bare one a latency snapshot")
	}
	for _, fam := range []string{
		"gcs_token_rotation_seconds", "gcs_delivery_seconds",
		"gcs_membership_install_seconds", "core_state_sync_seconds",
	} {
		if so.Latency.MergedHistogram(fam).Count() == 0 {
			t.Errorf("traced sample's latency snapshot: %s has no observations", fam)
		}
	}
}

// TestTrialTraceCountsEvictedEvents: a trial's trace says how many of its
// events the ring evicted, and the kept events plus the evicted ones are
// every event emitted. The trace records protocol steps, not requests, so
// even the loaded shape (1 000 clients at 10 000 rps) keeps all of them.
func TestTrialTraceCountsEvictedEvents(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  AvailabilityConfig
	}{
		{"loaded", observedAvailability(1000, 10000)},
		{"light", func() AvailabilityConfig { c := quickAvailability(); c.Trace = true; return c }()},
	} {
		sample, _, err := AvailabilityTrial(1, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		tt := sample.Trace
		if tt == nil || len(tt.Events) == 0 {
			t.Fatalf("%s: traced trial carries no events", tc.name)
		}
		// Seq counts every emitted event, evicted ones too, so the newest
		// kept event's is how many the tracer had emitted at the snapshot.
		if emitted := tt.Events[len(tt.Events)-1].Seq; uint64(len(tt.Events))+tt.Dropped != emitted {
			t.Fatalf("%s: %d kept + %d dropped, want the %d emitted", tc.name, len(tt.Events), tt.Dropped, emitted)
		}
		if tt.Dropped != 0 {
			t.Fatalf("%s: Dropped = %d, want every event kept", tc.name, tt.Dropped)
		}
	}
}

// TestLoadedTrialBreakdownHasItsDetection: with every marker kept, a loaded
// trial's detection phase is the detection the trial itself measured, inside
// the tuned profile's [T−H, T] window.
func TestLoadedTrialBreakdownHasItsDetection(t *testing.T) {
	cfg := observedAvailability(1000, 10000)
	sample, res, err := AvailabilityTrial(1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := sample.Trace.Phases.Detection
	t.Logf("%d events kept; detection %v, the trial measured %v", len(sample.Trace.Events), d, res.DetectionLatency)
	lo, hi := cfg.GCS.FaultDetectTimeout-cfg.GCS.HeartbeatInterval, cfg.GCS.FaultDetectTimeout
	if d < lo || d > hi {
		t.Errorf("breakdown detection = %v, want within [T−H, T] = [%v, %v]", d, lo, hi)
	}
	if diff := d - res.DetectionLatency; diff < -time.Millisecond || diff > time.Millisecond {
		t.Errorf("breakdown detection = %v, the trial measured %v: want them within 1ms", d, res.DetectionLatency)
	}
}

// BenchmarkAvailabilityTrialObserved is one observed availability trial:
// open loop at 2 000 rps from 200 clients, a NIC fault, every observer plane
// on. Its B/op is what observing a loaded trial costs in memory.
func BenchmarkAvailabilityTrialObserved(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := AvailabilityTrial(int64(i+1), observedAvailability(200, 2000)); err != nil {
			b.Fatal(err)
		}
	}
}
