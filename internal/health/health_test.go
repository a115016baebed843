package health

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"wackamole/internal/metrics"
	"wackamole/internal/obs"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// feed installs one peer and feeds n perfectly regular arrivals at the given
// interval, returning the monitor and the instant of the last arrival.
func feed(m *Monitor, peer string, interval time.Duration, n int) time.Time {
	m.SetPeers(1, []string{peer}, t0)
	now := t0
	for i := 0; i < n; i++ {
		now = now.Add(interval)
		m.Observe(peer, now)
	}
	return now
}

// TestPhiBands pins the estimator's shape on a known distribution: constant
// 100ms arrivals give mean 100ms, effective std 25ms (the mean/4 floor) and
// an acceptable-pause center of 150ms, so phi is analytically computable.
func TestPhiBands(t *testing.T) {
	m := NewMonitor(Options{Node: "a"})
	last := feed(m, "b", 100*time.Millisecond, 20)
	cases := []struct {
		silence  time.Duration
		min, max float64
	}{
		// At the center the tail probability is exactly 0.5: phi = log10(2).
		{150 * time.Millisecond, 0.25, 0.35},
		// One effective std past the center.
		{175 * time.Millisecond, 0.70, 0.90},
		// One whole lost beat (200ms of silence = 2x the mean): suspicious
		// but nowhere near the threshold — a single drop must not suspect.
		{200 * time.Millisecond, 1.2, 2.2},
		{250 * time.Millisecond, 3.5, 5.5},
		// Four means of silence: far past any default threshold.
		{400 * time.Millisecond, 8, maxPhi},
	}
	prev := 0.0
	for _, tc := range cases {
		phi := m.Phi("b", last.Add(tc.silence))
		if phi < tc.min || phi > tc.max {
			t.Errorf("phi after %v silence = %.3f, want [%v, %v]", tc.silence, phi, tc.min, tc.max)
		}
		if phi <= prev {
			t.Errorf("phi after %v silence = %.3f not monotone (prev %.3f)", tc.silence, phi, prev)
		}
		prev = phi
	}
	if phi := m.Phi("b", last.Add(time.Hour)); phi != maxPhi {
		t.Errorf("phi after an hour = %v, want cap %v", phi, maxPhi)
	}
}

func TestPhiNeedsMinSamples(t *testing.T) {
	m := NewMonitor(Options{Node: "a"})
	last := feed(m, "b", 100*time.Millisecond, minSamples-1)
	if phi := m.Phi("b", last.Add(time.Hour)); phi != 0 {
		t.Fatalf("phi with %d samples = %v, want 0", minSamples-1, phi)
	}
	if phi := m.Phi("b", feed(m, "b", 100*time.Millisecond, minSamples).Add(time.Hour)); phi == 0 {
		t.Fatalf("phi with %d samples = 0, want it computed", minSamples)
	}
	if phi := m.Phi("nope", t0); phi != 0 {
		t.Fatalf("phi for unknown peer = %v, want 0", phi)
	}
	var nilMon *Monitor
	nilMon.Observe("b", t0)
	nilMon.SetPeers(1, []string{"b"}, t0)
	nilMon.Detected("b", t0)
	if nilMon.Phi("b", t0) != 0 || nilMon.Snapshot(t0) != nil {
		t.Fatal("nil monitor must be inert")
	}
}

// TestJitteredArrivals checks the estimator adapts its deviation: noisy
// inter-arrivals widen the distribution, lowering phi for the same silence.
func TestJitteredArrivals(t *testing.T) {
	reg := NewMonitor(Options{Node: "a"})
	last := feed(reg, "b", 100*time.Millisecond, 30)
	regular := reg.Phi("b", last.Add(300*time.Millisecond))

	jit := NewMonitor(Options{Node: "a"})
	jit.SetPeers(1, []string{"b"}, t0)
	now := t0
	for i := 0; i < 30; i++ {
		d := 100 * time.Millisecond
		if i%2 == 0 {
			d = 40 * time.Millisecond
		} else {
			d = 160 * time.Millisecond
		}
		now = now.Add(d)
		jit.Observe("b", now)
	}
	jittered := jit.Phi("b", now.Add(300*time.Millisecond))
	if jittered >= regular {
		t.Fatalf("jittered phi %.3f should be below regular phi %.3f", jittered, regular)
	}
}

// TestMinMeanFloor: a token-dominated window (1ms arrivals) models the peer
// as a kilohertz emitter and would suspect it during any few-dozen-ms stall;
// flooring the mean at the guaranteed heartbeat cadence keeps sub-cadence
// stalls unsuspicious while real heartbeat-scale silence still crosses.
func TestMinMeanFloor(t *testing.T) {
	fast := NewMonitor(Options{Node: "a"})
	last := feed(fast, "b", time.Millisecond, 30)
	if phi := fast.Phi("b", last.Add(100*time.Millisecond)); phi < Threshold {
		t.Fatalf("setup: unfloored token-dominated phi = %.2f, want >= threshold", phi)
	}

	floored := NewMonitor(Options{Node: "a"})
	floored.SetMinMean(200 * time.Millisecond)
	last = feed(floored, "b", time.Millisecond, 30)
	if phi := floored.Phi("b", last.Add(100*time.Millisecond)); phi >= 1 {
		t.Fatalf("floored phi after a 100ms token stall = %.2f, want < 1", phi)
	}
	if phi := floored.Phi("b", last.Add(time.Second)); phi < Threshold {
		t.Fatalf("floored phi after 1s of true silence = %.2f, want >= threshold", phi)
	}

	var nilMon *Monitor
	nilMon.SetMinMean(time.Second) // nil monitor stays inert
}

func TestSuspectAndClearEvents(t *testing.T) {
	tr := obs.New(64, func() time.Time { return t0 })
	m := NewMonitor(Options{Node: "a", Tracer: tr})
	last := feed(m, "b", 100*time.Millisecond, 10)

	// Steady state: no suspicion.
	snap := m.Snapshot(last.Add(50 * time.Millisecond))
	if len(snap) != 1 || snap[0].Phi >= Threshold {
		t.Fatalf("steady-state snapshot: %+v", snap)
	}

	// Long silence: the periodic evaluation crosses the threshold once.
	snap = m.Snapshot(last.Add(time.Second))
	if snap[0].Phi < Threshold {
		t.Fatalf("no suspicion after 1s silence: %+v", snap)
	}
	m.Snapshot(last.Add(2 * time.Second)) // still suspected, no second event
	if n := countKind(tr, obs.KindPhiSuspect); n != 1 {
		t.Fatalf("phi-suspect events = %d, want 1", n)
	}

	// The peer comes back: suspicion clears with an event.
	m.Observe("b", last.Add(3*time.Second))
	if n := countKind(tr, obs.KindPhiClear); n != 1 {
		t.Fatalf("phi-clear events = %d, want 1", n)
	}
	snap = m.Snapshot(last.Add(3*time.Second + 50*time.Millisecond))
	if snap[0].Phi >= Threshold {
		t.Fatalf("suspicion not cleared: %+v", snap)
	}
}

// TestPhiCountsCrossings: Phi is the daemon's scan-tick evaluation. Like
// Snapshot, it counts and traces an upward crossing once per episode.
func TestPhiCountsCrossings(t *testing.T) {
	tr := obs.New(64, func() time.Time { return t0 })
	reg := metrics.New()
	m := NewMonitor(Options{Node: "a", Metrics: reg, Tracer: tr})
	last := feed(m, "b", 100*time.Millisecond, 10)
	for _, silence := range []time.Duration{50 * time.Millisecond, time.Second, 2 * time.Second} {
		m.Phi("b", last.Add(silence))
	}
	if n := countKind(tr, obs.KindPhiSuspect); n != 1 {
		t.Fatalf("phi-suspect events = %d, want 1", n)
	}
	fam := reg.Snapshot().Family("health_suspicions_total")
	if fam == nil || len(fam.Series) != 1 || fam.Series[0].Value != 1 {
		t.Fatalf("health_suspicions_total = %+v, want one crossing", fam)
	}
	if snap := m.Snapshot(last.Add(2 * time.Second)); snap[0].Phi < Threshold {
		t.Fatalf("crossing not kept: %+v", snap)
	}
}

func countKind(tr *obs.Tracer, k obs.Kind) int {
	n := 0
	for _, ev := range tr.Snapshot() {
		if ev.Kind == k {
			n++
		}
	}
	return n
}

// TestGenerationReset: a new membership install must discard windows,
// last-heard ages and suspicion — the restart/generation reset.
func TestGenerationReset(t *testing.T) {
	tr := obs.New(64, func() time.Time { return t0 })
	reg := metrics.New()
	m := NewMonitor(Options{Node: "a", Metrics: reg, Tracer: tr})
	last := feed(m, "b", 100*time.Millisecond, 10)
	m.Snapshot(last.Add(time.Second)) // drive into suspicion
	if snap := m.Snapshot(last.Add(time.Second)); snap[0].Phi < Threshold {
		t.Fatal("setup: peer should be suspected")
	}

	reinstall := last.Add(2 * time.Second)
	m.SetPeers(2, []string{"b", "c"}, reinstall)
	snap := m.Snapshot(reinstall.Add(10 * time.Millisecond))
	if len(snap) != 2 {
		t.Fatalf("snapshot rows = %d, want 2", len(snap))
	}
	for _, ph := range snap {
		if ph.Samples != 0 || ph.Phi != 0 {
			t.Fatalf("state carried across generations: %+v", ph)
		}
		if ph.LastHeard > 20*time.Millisecond {
			t.Fatalf("last-heard not reset at install: %+v", ph)
		}
	}

	// The old episode's suspicion is gone too. A detection on the empty
	// window abstains: a carried-over suspicion would record a lead.
	m.Detected("b", reinstall.Add(20*time.Millisecond))
	if n := reg.Snapshot().MergedHistogram("health_detection_lead_seconds").Count(); n != 0 {
		t.Fatalf("lead recorded from a previous generation's suspicion: %d", n)
	}
	// Fresh signals raise no phi-clear for the old episode, and a new
	// silence is a second crossing, not one suppressed as already suspected.
	now := reinstall
	for i := 0; i < 10; i++ {
		now = now.Add(100 * time.Millisecond)
		m.Observe("b", now)
	}
	if n := countKind(tr, obs.KindPhiClear); n != 0 {
		t.Fatalf("phi-clear events = %d after reinstall, want 0", n)
	}
	m.Phi("b", now.Add(time.Second))
	if n := countKind(tr, obs.KindPhiSuspect); n != 2 {
		t.Fatalf("phi-suspect events = %d, want 2", n)
	}
	fam := reg.Snapshot().Family("health_suspicions_total")
	if fam == nil || len(fam.Series) != 2 || fam.Series[0].Value != 2 || fam.Series[1].Value != 0 {
		t.Fatalf("health_suspicions_total = %+v, want two crossings on b and none on c", fam)
	}

	// A departed peer is dropped entirely.
	m.SetPeers(3, []string{"c"}, now.Add(2*time.Second))
	if snap := m.Snapshot(now.Add(2 * time.Second)); len(snap) != 1 || snap[0].Peer != "c" {
		t.Fatalf("departed peer still tracked: %+v", snap)
	}
}

// TestDetectedLead: when the fixed detector fires after phi already
// suspected the peer, the lead lands in the histogram; when phi had not
// crossed, the unsuspected counter ticks instead.
func TestDetectedLead(t *testing.T) {
	reg := metrics.New()
	m := NewMonitor(Options{Node: "a", Metrics: reg})
	last := feed(m, "b", 100*time.Millisecond, 10)

	m.Snapshot(last.Add(500 * time.Millisecond)) // phi crosses here
	m.Detected("b", last.Add(800*time.Millisecond))
	lead := reg.Snapshot().MergedHistogram("health_detection_lead_seconds")
	if lead.Count() != 1 {
		t.Fatalf("lead observations = %d, want 1", lead.Count())
	}
	// The recorded lead is 300ms, in the [256ms, 512ms) log2 bucket.
	if q := lead.QuantileDuration(0.5); q < 200*time.Millisecond || q > 600*time.Millisecond {
		t.Fatalf("lead p50 = %v, want ~300ms", q)
	}

	// Fresh monitor, detector fires during normal traffic: phi never crossed.
	m2 := NewMonitor(Options{Node: "a", Metrics: reg})
	last2 := feed(m2, "b", 100*time.Millisecond, 10)
	m2.Detected("b", last2.Add(120*time.Millisecond))
	missed := reg.Snapshot().Family("health_detections_unsuspected_total")
	if missed == nil || len(missed.Series) == 0 || missed.Series[0].Value != 1 {
		t.Fatalf("unsuspected detections not counted: %+v", missed)
	}
}

// TestDetectedCrossesLate: the Detected backstop itself performs the
// crossing (zero lead) when the periodic evaluator never ran during the
// silence, and emits the suspect event before returning — the ordering the
// gcs hook relies on.
func TestDetectedCrossesLate(t *testing.T) {
	tr := obs.New(64, func() time.Time { return t0 })
	m := NewMonitor(Options{Node: "a", Tracer: tr})
	last := feed(m, "b", 100*time.Millisecond, 10)
	m.Detected("b", last.Add(800*time.Millisecond))
	if n := countKind(tr, obs.KindPhiSuspect); n != 1 {
		t.Fatalf("phi-suspect events = %d, want 1", n)
	}
}

// TestPhiGaugeIsEvaluatedAtScrape: health_phi is a view of the estimator
// at scrape time. A peer silent for three heartbeats reads as suspected on
// /metrics although nothing evaluated the monitor since its last arrival.
func TestPhiGaugeIsEvaluatedAtScrape(t *testing.T) {
	const h = 200 * time.Millisecond
	reg := metrics.New()
	m := NewMonitor(Options{Node: "a", Metrics: reg})
	m.SetMinMean(h)
	now := feed(m, "b", h, 20)
	m.SetClock(func() time.Time { return now })
	scrape := func() float64 {
		var b strings.Builder
		if err := metrics.WritePrometheus(&b, reg.Snapshot()); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(b.String(), "\n") {
			if v, ok := strings.CutPrefix(line, `health_phi{node="a",peer="b"} `); ok {
				milli, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatal(err)
				}
				return milli / 1000
			}
		}
		t.Fatalf("no health_phi series for a->b in:\n%s", b.String())
		return 0
	}
	if phi := scrape(); phi != 0 {
		t.Fatalf("phi at the last arrival = %v, want 0", phi)
	}
	now = now.Add(3 * h)
	if phi := scrape(); phi < Threshold {
		t.Fatalf("phi after %v of silence = %v, want ≥ %v", 3*h, phi, Threshold)
	}
	// A peer that leaves the membership reads 0, not its last suspicion.
	m.SetPeers(2, []string{"c"}, now)
	if phi := scrape(); phi != 0 {
		t.Fatalf("phi of a departed peer = %v, want 0", phi)
	}
}

// TestScrapeDuringSetPeers: a scrape holds the registry's lock while it
// takes the monitor's, so SetPeers must register a new peer's series
// without holding the monitor's lock. Run under -race; a wrong order
// deadlocks.
func TestScrapeDuringSetPeers(t *testing.T) {
	reg := metrics.New()
	m := NewMonitor(Options{Node: "a", Metrics: reg})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			reg.Snapshot()
		}
	}()
	for i := 0; i < 200; i++ {
		m.SetPeers(uint64(i), []string{"p" + strconv.Itoa(i)}, t0)
	}
	<-done
}

// TestObserveZeroAlloc pins the steady-state hot path: observing a known
// peer with metrics armed and no tracer event must not allocate.
func TestObserveZeroAlloc(t *testing.T) {
	reg := metrics.New()
	tr := obs.New(64, func() time.Time { return t0 })
	m := NewMonitor(Options{Node: "a", Metrics: reg, Tracer: tr})
	now := feed(m, "b", 100*time.Millisecond, 200)
	if avg := testing.AllocsPerRun(1000, func() {
		now = now.Add(100 * time.Millisecond)
		m.Observe("b", now)
	}); avg > 0 {
		t.Fatalf("Observe allocates %.2f/op on the steady-state path", avg)
	}
}

func BenchmarkHealthObserve(b *testing.B) {
	reg := metrics.New()
	m := NewMonitor(Options{Node: "a", Metrics: reg})
	now := feed(m, "b", 100*time.Millisecond, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(100 * time.Millisecond)
		m.Observe("b", now)
	}
}
