package main

// Live health plane end to end: three daemons on loopback UDP, each booted
// from its configuration file by the daemon's own wiring (tracer, HLC,
// registry, health monitor, control channel). The live questions are asked
// through the surfaces that answer them: each daemon's `wackactl status`
// text, asked over its control channel, and its registry, which is what
// /metrics serves. Steady state must populate the full N×N suspicion matrix
// with zero false suspicions: every status `health:` line names both
// peers, well sampled and below the threshold, no registry has counted a
// suspicion since boot, and the `owned:` lines cover every group exactly
// once. An abrupt kill must make every survivor's `health:` line and
// `health_phi` series suspect the victim, and drive its shadow phi over the
// threshold at or before the fixed T-timeout detection, asserted both
// through the monitors' counters and through the HLC-ordered trace. Run
// under -race this also pins that monitor, scan tick, tracer, status query,
// scrape and protocol loop may interleave freely.

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"wackamole/internal/core"
	"wackamole/internal/ctl"
	"wackamole/internal/health"
	"wackamole/internal/metrics"
	"wackamole/internal/obs"
)

func TestHealthLiveCluster(t *testing.T) {
	peers := []string{"127.0.0.1:24950", "127.0.0.1:24951", "127.0.0.1:24952"}
	c := bootCluster(t, peers, liveConf(2, "metrics 127.0.0.1:0", "control 127.0.0.1:0"), nil)
	daemons, groups := c.daemons, c.daemons[0].cfg.Groups

	c.waitFor("cluster formation", 15*time.Second, func() bool { return formed(daemons...) })

	// Full N×N matrix: every daemon's health: line names both peers, each
	// backed by enough inter-arrival samples for phi to be defined. Peers
	// off the token path are sampled only at heartbeat cadence, so a
	// matured window needs a second or two of steady state — killing
	// earlier would make the shadow detector abstain for lack of data.
	c.waitFor("fully populated suspicion matrix", 15*time.Second, func() bool {
		for i, d := range daemons {
			samples := healthValues(d.statusText(), "samples")
			if len(samples) != len(peers)-1 {
				return false
			}
			for peer, n := range samples {
				if peer == peers[i] || n < 5 {
					return false
				}
			}
		}
		return true
	})

	// Zero false suspicions in steady state: the daemons' scan ticks have
	// evaluated every peer since boot, and no registry counted a crossing.
	for i, d := range daemons {
		if n := counterTotal(d.registry.Snapshot(), "health_suspicions_total"); n != 0 {
			t.Fatalf("%s: health_suspicions_total = %v in steady state, want 0", peers[i], n)
		}
	}

	// Who owns each VIP, as `wackactl status` answers.
	c.waitOwnership("steady state", daemons, groups)
	// Who suspects whom: each health: line (one row of the N×N matrix)
	// names both peers, neither suspected.
	for i, d := range daemons {
		st := d.statusText()
		phis := healthValues(st, "phi")
		if len(phis) != len(peers)-1 {
			t.Fatalf("%s: health line names %d peers, want %d:\n%s", peers[i], len(phis), len(peers)-1, st)
		}
		for peer, phi := range phis {
			if peer == peers[i] || phi >= health.Threshold {
				t.Fatalf("%s: steady-state health line has %s at phi %v:\n%s", peers[i], peer, phi, st)
			}
		}
	}

	// Abrupt kill: socket and loop vanish, no goodbyes. Every survivor's
	// shadow detector must suspect the victim before its own T timeout.
	victim := 2
	victimAddr := peers[victim]
	killed := time.Now()
	c.kill(victim)
	survivors := daemons[:2]

	// Before the survivors reconfigure the victim away, each one's health:
	// line and health_phi series must suspect it. The series is scraped
	// from this goroutine, off the daemon's loop, as /metrics would.
	inStatus, inMetrics := make([]bool, len(survivors)), make([]bool, len(survivors))
	suspectedEverywhere := func() bool {
		for i := range survivors {
			if !inStatus[i] || !inMetrics[i] {
				return false
			}
		}
		return true
	}
	for ; !suspectedEverywhere(); time.Sleep(5 * time.Millisecond) {
		if time.Since(killed) > 10*time.Second {
			t.Fatalf("survivors never suspected %s: on their health: line %v, on health_phi %v",
				victimAddr, inStatus, inMetrics)
		}
		for i, d := range survivors {
			if phi, ok := healthValues(d.statusText(), "phi")[victimAddr]; ok && phi >= health.Threshold {
				inStatus[i] = true
			}
			if milli, ok := phiSeries(d.registry.Snapshot(), victimAddr); ok && milli >= health.Threshold*1000 {
				inMetrics[i] = true
			}
		}
	}
	t.Logf("margin: every survivor suspected the victim %v after the kill, of 10s",
		time.Since(killed).Round(time.Millisecond))

	c.waitFor("fail-over", 15*time.Second, func() bool { return formed(survivors...) })

	// The first survivor whose T timeout fires triggers the
	// reconfiguration; the other may be pulled into it before its own timer
	// expires and then legitimately has no detection event. So: every
	// survivor must have suspected the victim via phi, every survivor that
	// did detect must show phi leading in HLC order, and at least one
	// detection with a recorded lead must exist cluster-wide. Should none
	// exist, the failure names, per survivor, the reason of each gather it
	// entered (fault:…, token-loss, join:…) and whether its T timeout fired.
	leads := 0
	var gathers []string
	for i, d := range survivors {
		snap := d.registry.Snapshot()
		if n := counterTotal(snap, "health_suspicions_total"); n < 1 {
			t.Fatalf("survivor %s: health_suspicions_total = %v, want >= 1", peers[i], n)
		}
		if n := counterTotal(snap, "health_detections_unsuspected_total"); n != 0 {
			t.Fatalf("survivor %s: %v detections fired before phi crossed", peers[i], n)
		}
		leads += int(snap.MergedHistogram("health_detection_lead_seconds").Count())

		// HLC order: the phi-suspect trace event against the victim must
		// precede the heartbeat-miss (the T-timeout detection) in the
		// node's causally stamped timeline.
		var suspect, miss *obs.Event
		var reasons []string
		for _, ev := range d.tracer.Snapshot() {
			ev := ev
			if ev.Kind == obs.KindGatherEnter {
				reasons = append(reasons, ev.Detail)
			}
			if ev.Detail != victimAddr {
				continue
			}
			if ev.Kind == obs.KindPhiSuspect && suspect == nil {
				suspect = &ev
			}
			if ev.Kind == obs.KindHeartbeatMiss && miss == nil {
				miss = &ev
			}
		}
		gathers = append(gathers, fmt.Sprintf("%s gather-enter %q, heartbeat-miss %t", peers[i], reasons, miss != nil))
		if suspect == nil {
			t.Fatalf("survivor %s: no phi-suspect event against the victim", peers[i])
		}
		if suspect.HLC.IsZero() {
			t.Fatalf("survivor %s: phi-suspect not HLC-stamped", peers[i])
		}
		if miss != nil {
			if miss.HLC.IsZero() {
				t.Fatalf("survivor %s: heartbeat-miss not HLC-stamped", peers[i])
			}
			if suspect.HLC.Compare(miss.HLC) > 0 {
				t.Fatalf("survivor %s: phi-suspect %s after heartbeat-miss %s",
					peers[i], suspect.HLC, miss.HLC)
			}
			t.Logf("margin: survivor %s suspected the victim %v before its T timeout fired",
				peers[i], miss.At.Sub(suspect.At).Round(time.Millisecond))
		}
	}
	if leads < 1 {
		t.Fatalf("no survivor recorded a detection lead: %s", strings.Join(gathers, "; "))
	}
	c.waitOwnership("after the fail-over", survivors, groups)
}

// statusText asks the daemon's control channel for its status, as
// `wackactl status` does; a failed request reads as an error line.
func (d *daemon) statusText() string {
	reply, err := ctl.Send(d.ctlSrv.Addr(), ctl.CmdStatus)
	if err != nil {
		return "error: " + err.Error()
	}
	return reply
}

// ownership reads who owns each VIP off the daemons' status texts. It
// returns every group their owned: lines name, and whether each daemon's
// table: lines list exactly liveGroups entries, each assigned to the member
// whose owned: line holds it.
func ownership(ds []*daemon) (owned []string, agree bool) {
	texts := make([]string, len(ds))
	holder := map[string]string{}
	for i, d := range ds {
		texts[i] = d.statusText()
		member := strings.Join(statusLine(texts[i], "member:"), " ")
		for _, g := range statusLine(texts[i], "owned:") {
			owned = append(owned, g)
			holder[g] = member
		}
	}
	for _, text := range texts {
		table := 0
		for _, line := range strings.Split(text, "\n") {
			// "table:   web1         -> 127.0.0.1:24950/…"
			if f := strings.Fields(line); len(f) == 4 && f[0] == "table:" {
				if holder[f[1]] != f[3] {
					return owned, false
				}
				table++
			}
		}
		if table != liveGroups {
			return owned, false
		}
	}
	return owned, true
}

// statusLine returns the fields of the status line that starts with key.
func statusLine(status, key string) []string {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			return strings.Fields(rest)
		}
	}
	return nil
}

// healthValues parses a status health: line ("peer phi=P margin=M last=L
// samples=N | …") into each peer's value of key.
func healthValues(status, key string) map[string]float64 {
	values := map[string]float64{}
	for _, part := range strings.Split(strings.Join(statusLine(status, "health:"), " "), " | ") {
		fields := strings.Fields(part)
		if len(fields) == 0 {
			continue
		}
		for _, f := range fields[1:] {
			if v, ok := strings.CutPrefix(f, key+"="); ok {
				if x, err := strconv.ParseFloat(v, 64); err == nil {
					values[fields[0]] = x
				}
			}
		}
	}
	return values
}

// phiSeries reads the health_phi series (milli-phi) against peer.
func phiSeries(snap metrics.Snapshot, peer string) (float64, bool) {
	if fam := snap.Family("health_phi"); fam != nil {
		for _, s := range fam.Series {
			for _, l := range s.Labels {
				if l.Key == "peer" && l.Value == peer {
					return s.Value, true
				}
			}
		}
	}
	return 0, false
}

// waitOwnership waits until every daemon in ds has table: lines agreeing
// with the owned: lines, and then fails unless the owned: lines name every
// group exactly once.
func (c *liveCluster) waitOwnership(when string, ds []*daemon, groups []core.VIPGroup) {
	c.t.Helper()
	var owned []string
	c.waitFor(when+": status tables agreeing with the owned: lines", 15*time.Second, func() bool {
		var agree bool
		owned, agree = ownership(ds)
		return agree
	})
	t := c.t
	count := map[string]int{}
	for _, g := range owned {
		count[g]++
	}
	for _, g := range groups {
		if count[g.Name] != 1 {
			t.Fatalf("%s: owned: lines name %s %d times, want once (owned %v)", when, g.Name, count[g.Name], owned)
		}
	}
	if len(owned) != len(groups) {
		t.Fatalf("%s: owned: lines name %v, want exactly the %d groups", when, owned, len(groups))
	}
}

// counterTotal sums a counter family across its label sets.
func counterTotal(snap metrics.Snapshot, name string) float64 {
	fam := snap.Family(name)
	if fam == nil {
		return 0
	}
	var total float64
	for _, s := range fam.Series {
		total += s.Value
	}
	return total
}
