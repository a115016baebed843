package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"wackamole/internal/experiment/runner"
	"wackamole/internal/gcs"
	"wackamole/internal/rip"
)

// outputs holds every rendering of a sweep's rows.
type outputs struct {
	table, ndjson, trace string
}

// sweepOutputs runs the experiment and returns its rows with every one of
// their renderings: the markdown table, the NDJSON stream and the trace
// stream (empty unless the sweep was traced).
func sweepOutputs(t *testing.T, e Experiment, g Grid, opts ...Option) ([]Row, outputs) {
	t.Helper()
	rows, err := Sweep(e, g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	var nd, tr bytes.Buffer
	if err := WriteNDJSON(&nd, rows); err != nil {
		t.Fatal(err)
	}
	if err := WriteTrace(&tr, rows); err != nil {
		t.Fatal(err)
	}
	return rows, outputs{e.Render(rows), nd.String(), tr.String()}
}

// sameAcrossWorkers checks that four workers reproduce a serial sweep's
// outputs byte for byte and, for an experiment that honours tracing, that
// a traced sweep is likewise identical at one worker and at four, trace
// stream included, and renders the untraced table.
func sameAcrossWorkers(t *testing.T, e Experiment, g Grid, serial outputs) {
	t.Helper()
	if _, par := sweepOutputs(t, e, g, Parallel(4)); par != serial {
		t.Fatalf("parallel sweep diverged from serial:\n%+v\n---\n%+v", serial, par)
	}
	if !e.Trace {
		return
	}
	_, tserial := sweepOutputs(t, e, g, Parallel(1), WithTrace())
	_, tpar := sweepOutputs(t, e, g, Parallel(4), WithTrace())
	if tserial.trace == "" {
		t.Fatal("a traced sweep wrote no trace stream")
	}
	if tpar != tserial {
		t.Fatalf("parallel traced sweep diverged from serial:\n%+v\n---\n%+v", tserial, tpar)
	}
	if tserial.table != serial.table {
		t.Fatalf("tracing changed the table:\n%s---\n%s", serial.table, tserial.table)
	}
}

// meanOf finds the row whose point label starts with prefix.
func meanOf(t *testing.T, rows []Row, prefix string) time.Duration {
	t.Helper()
	for _, r := range rows {
		if strings.HasPrefix(r.Point, prefix) {
			return r.Stat.Mean
		}
	}
	t.Fatalf("row %s missing", prefix)
	return 0
}

// experimentChecks holds, per registered experiment, the grid size and the
// experiment-specific shape assertions (paper agreement) applied to a
// two-trial sweep; what every experiment has in common is asserted by
// TestExperiments itself.
var experimentChecks = map[string]struct {
	seed  int64
	rows  int
	check func(t *testing.T, rows []Row, table string)
}{
	"table1": {300, 2, func(t *testing.T, rows []Row, table string) {
		for _, r := range rows {
			slack := 0.2
			if m := r.Stat.Mean.Seconds(); m < r.Extra["predicted_min_s"]-slack || m > r.Extra["predicted_max_s"]+slack {
				t.Fatalf("%s measured %v outside predicted [%vs, %vs]",
					r.Point, r.Stat.Mean, r.Extra["predicted_min_s"], r.Extra["predicted_max_s"])
			}
		}
		for _, want := range []string{"Fault-detection", "heartbeat", "Discovery", "Predicted", "Measured", "p50", "p99"} {
			if !strings.Contains(table, want) {
				t.Fatalf("render missing %q:\n%s", want, table)
			}
		}
	}},
	"figure5": {200, 2 * len(figure5Sizes), func(t *testing.T, rows []Row, table string) {
		for _, r := range rows {
			switch ConfigName(r.Cols[0]) {
			case configDefault:
				if r.Stat.Mean < 9*time.Second || r.Stat.Mean > 13*time.Second {
					t.Fatalf("%s mean %v out of band", r.Point, r.Stat.Mean)
				}
			case configTuned:
				if r.Stat.Mean < 1900*time.Millisecond || r.Stat.Mean > 2800*time.Millisecond {
					t.Fatalf("%s mean %v out of band", r.Point, r.Stat.Mean)
				}
			default:
				t.Fatalf("row %s: unknown configuration %q", r.Point, r.Cols[0])
			}
			if r.Metrics.MembershipsInstalled == 0 {
				t.Fatalf("row %s missing metrics: %+v", r.Point, r.Metrics)
			}
		}
		if !strings.Contains(table, "cluster size") || strings.Count(table, "\n") < len(rows) {
			t.Fatalf("render:\n%s", table)
		}
		if !strings.Contains(table, "p50") || !strings.Contains(table, "p99") {
			t.Fatalf("render missing percentiles:\n%s", table)
		}
	}},
	"graceful": {77, 4, func(t *testing.T, rows []Row, table string) {
		if !strings.Contains(table, "cluster size") || !strings.Contains(table, "|") {
			t.Fatalf("unexpected table output:\n%s", table)
		}
	}},
	"router": {500, 2, func(t *testing.T, rows []Row, table string) {
		naive, all := meanOf(t, rows, string(RouterModeNaive)), meanOf(t, rows, string(RouterModeAdvertiseAll))
		if all > 3*time.Second {
			t.Fatalf("advertise-all mean %v, want ≈ fail-over time", all)
		}
		if naive <= all {
			t.Fatalf("naive (%v) not slower than advertise-all (%v)", naive, all)
		}
		if !strings.Contains(table, "naive") || !strings.Contains(table, "advertise-all") {
			t.Fatalf("render:\n%s", table)
		}
	}},
	"baselines": {400, 5, func(t *testing.T, rows []Row, table string) {
		// Ordering claims from the paper's §7 discussion.
		tuned, vrrp, hsrp := meanOf(t, rows, "wackamole (tuned)"), meanOf(t, rows, "vrrp"), meanOf(t, rows, "hsrp")
		if tuned >= hsrp {
			t.Fatalf("tuned wackamole (%v) not faster than hsrp (%v)", tuned, hsrp)
		}
		if vrrp >= hsrp {
			t.Fatalf("vrrp (%v) not faster than hsrp (%v)", vrrp, hsrp)
		}
		if !strings.Contains(table, "vrrp") || !strings.Contains(table, "fake") {
			t.Fatalf("render:\n%s", table)
		}
	}},
	"load": {11, 4, func(t *testing.T, rows []Row, table string) {
		if quiet := rows[0]; quiet.Extra["false_reconfigs_per_min"] != 0 {
			t.Fatalf("unloaded cluster reports %v false reconfigurations per minute", quiet.Extra["false_reconfigs_per_min"])
		}
		if loaded := rows[len(rows)-1]; loaded.Extra["false_reconfigs_per_min"] == 0 {
			t.Fatal("heavy jitter produced no false reconfigurations")
		}
		if !strings.Contains(table, "scheduling jitter") {
			t.Fatalf("render:\n%s", table)
		}
	}},
	"ablations": {600, 8, func(t *testing.T, rows []Row, table string) {
		if meanOf(t, rows, "arp-spoofing (§5.1)/spoof on") >= meanOf(t, rows, "arp-spoofing (§5.1)/spoof off") {
			t.Fatal("spoofing did not help")
		}
		if meanOf(t, rows, "re-balancing (§3.4)/enabled") >= meanOf(t, rows, "re-balancing (§3.4)/disabled") {
			t.Fatal("balancing did not reduce skew")
		}
		if meanOf(t, rows, "maturity bootstrap (§3.4)/enabled") >= meanOf(t, rows, "maturity bootstrap (§3.4)/disabled") {
			t.Fatal("maturity bootstrap did not reduce churn")
		}
		if !strings.Contains(table, "duplicate coverage") {
			t.Fatalf("render:\n%s", table)
		}
	}},
}

// TestExperiments exercises every registered experiment end to end through
// the one pipeline, two trials per point: the grid has the expected size,
// every NDJSON row parses and carries the common schema, the worker count
// changes neither the table, the NDJSON nor the trace stream by a byte, and
// the per-point failure policy holds (a partial failure is counted, an
// all-failed point is fatal). The availability experiment, outside the
// registry, goes through the same worker-count comparison. cmd/wacksim
// provides the full-trial runs.
func TestExperiments(t *testing.T) {
	for _, e := range Experiments {
		t.Run(e.Name, func(t *testing.T) {
			want, ok := experimentChecks[e.Name]
			if !ok {
				t.Fatalf("registered experiment %q has no entry in experimentChecks", e.Name)
			}
			g := Grid{Seed: want.seed, Trials: 2}
			rows, out := sweepOutputs(t, e, g, Parallel(1))
			if len(rows) != want.rows {
				t.Fatalf("%d rows, want %d", len(rows), want.rows)
			}
			sameAcrossWorkers(t, e, g, out)

			lines := strings.Split(strings.TrimSpace(out.ndjson), "\n")
			if len(lines) != len(rows) {
				t.Fatalf("%d NDJSON lines for %d rows", len(lines), len(rows))
			}
			for _, line := range lines {
				var rec struct {
					Experiment, Point, Unit string
					Trials                  int
					Metrics                 map[string]uint64
				}
				if err := json.Unmarshal([]byte(line), &rec); err != nil {
					t.Fatalf("invalid NDJSON line %q: %v", line, err)
				}
				if rec.Experiment != e.Name || rec.Point == "" || rec.Unit == "" || rec.Trials != 2 {
					t.Fatalf("incomplete row: %s", line)
				}
				if rec.Metrics["frames_sent"] == 0 {
					t.Fatalf("row carries no protocol activity: %s", line)
				}
			}
			want.check(t, rows, out.table)

			// The failure policy, on the experiment's own grid with the
			// trials stubbed out: each point's first seed (or every seed)
			// fails.
			stubbed := func(failAll bool) Experiment {
				s := e
				s.Points = func(g Grid) []Point {
					points := e.Points(g)
					for i := range points {
						first := g.Seed + points[i].SeedOffset
						points[i].Run = func(seed int64) (runner.Sample, error) {
							if failAll || seed == first {
								return runner.Sample{}, fmt.Errorf("induced failure")
							}
							return runner.Sample{Value: time.Second}, nil
						}
					}
					return points
				}
				return s
			}
			partial, err := Sweep(stubbed(false), g)
			if err != nil {
				t.Fatalf("partial failures aborted the sweep: %v", err)
			}
			for _, r := range partial {
				if r.Stat.N != 1 || r.Errors != 1 {
					t.Fatalf("%s: stat.N = %d, errors = %d, want 1 and 1", r.Point, r.Stat.N, r.Errors)
				}
			}
			if _, err := Sweep(stubbed(true), g); err == nil {
				t.Fatal("an all-failed point must abort the sweep")
			} else if !strings.Contains(err.Error(), "all 2 trials failed") {
				t.Fatalf("unexpected error: %v", err)
			}
		})
	}
	t.Run("availability", func(t *testing.T) {
		e, g := AvailabilityExperiment(quickAvailability()), Grid{Seed: 5, Trials: 2}
		rows, out := sweepOutputs(t, e, g, Parallel(1))
		if len(rows) != 3 {
			t.Fatalf("%d rows, want the aggregate and one per trial", len(rows))
		}
		sameAcrossWorkers(t, e, g, out)
	})
}

func TestRouterTrialNaiveSlowerSameSeed(t *testing.T) {
	cfg := gcs.TunedConfig()
	ripCfg := rip.Config{AdvertisePeriod: rip.DefaultAdvertisePeriod}
	naive, err := RouterTrial(9, RouterModeNaive, cfg, ripCfg)
	if err != nil {
		t.Fatal(err)
	}
	all, err := RouterTrial(9, RouterModeAdvertiseAll, cfg, ripCfg)
	if err != nil {
		t.Fatal(err)
	}
	if naive.Value < all.Value {
		t.Fatalf("naive %v faster than advertise-all %v", naive.Value, all.Value)
	}
}

func TestLoadSensitivityShape(t *testing.T) {
	quiet, err := loadTrial(11, 0, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if quiet.Metrics.ViewChanges != 0 {
		t.Fatalf("unloaded cluster had %d false reconfigurations", quiet.Metrics.ViewChanges)
	}
	if quiet.Value > 100*time.Millisecond {
		t.Fatalf("unloaded max gap %v", quiet.Value)
	}
	loaded, err := loadTrial(11, 600*time.Millisecond, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Metrics.ViewChanges == 0 {
		t.Fatal("heavy jitter produced no false reconfigurations")
	}
}

// TestProgressSinkObservesSweep verifies the pluggable sink sees every
// trial of a real sweep.
func TestProgressSinkObservesSweep(t *testing.T) {
	var events int
	var last runner.Progress
	sink := runner.SinkFunc(func(p runner.Progress) {
		events++
		last = p
	})
	if _, err := Sweep(graceful, Grid{Seed: 91, Trials: 2}, WithSink(sink), Parallel(2)); err != nil {
		t.Fatal(err)
	}
	if events != 8 {
		t.Fatalf("sink saw %d events, want 8 (4 sizes × 2 trials)", events)
	}
	if last.Done != 8 || last.Total != 8 || !strings.HasPrefix(last.Point, "graceful/") {
		t.Fatalf("last progress event = %+v", last)
	}
}
