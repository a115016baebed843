package wackamole_test

// Live health plane end to end: three real daemons on loopback UDP, each
// with the full production wiring (tracer, HLC, metrics, health monitor).
// The live questions are asked through the surfaces that answer them: each
// daemon's `wackactl status` text, asked over its control channel, and its
// registry, which is what /metrics serves. Steady state must populate the
// full N×N suspicion matrix with zero false suspicions: every status
// `health:` line names both peers, well sampled and below the threshold,
// no registry has counted a suspicion since boot, and the `owned:` lines
// cover every group exactly once. An abrupt kill must make every survivor's
// `health:` line and `health_phi` series suspect the victim, and drive its
// shadow phi over the threshold at or before the fixed T-timeout detection,
// asserted both through the monitors' counters and through the HLC-ordered
// trace. Run under -race this also pins that monitor, scan tick, tracer,
// status query, scrape and protocol loop may interleave freely.

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"testing"
	"time"

	"wackamole"
	"wackamole/internal/core"
	"wackamole/internal/ctl"
	"wackamole/internal/env/realtime"
	"wackamole/internal/gcs"
	"wackamole/internal/health"
	"wackamole/internal/ipmgr"
	"wackamole/internal/metrics"
	"wackamole/internal/obs"
)

func TestHealthLiveCluster(t *testing.T) {
	peers := []string{"127.0.0.1:24950", "127.0.0.1:24951", "127.0.0.1:24952"}
	groups := []core.VIPGroup{
		{Name: "web1", Addrs: []netip.Addr{netip.MustParseAddr("10.9.2.100")}},
		{Name: "web2", Addrs: []netip.Addr{netip.MustParseAddr("10.9.2.101")}},
		{Name: "web3", Addrs: []netip.Addr{netip.MustParseAddr("10.9.2.102")}},
	}
	daemons := make([]*healthDaemon, len(peers))
	defer func() {
		for _, d := range daemons {
			if d != nil && d.cleanup != nil {
				d.cleanup()
			}
		}
	}()
	for i, addr := range peers {
		e, loop, cleanup, err := realtime.NewEnv(addr, peers, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Production wiring from cmd/wackamole, health monitor included.
		// The tracer ring is sized so post-kill token traffic cannot evict
		// the phi-suspect events before the test snapshots them.
		tracer, registry := obs.New(1<<16, nil), metrics.New()
		e.Tracer, e.Metrics, e.HLC = tracer, registry, obs.NewHLCClock(nil, addr)
		e.HLC.SetMetrics(registry)
		node, err := wackamole.NewNode(e, wackamole.Config{
			GCS: gcs.Config{
				FaultDetectTimeout: 800 * time.Millisecond,
				HeartbeatInterval:  200 * time.Millisecond,
				DiscoveryTimeout:   600 * time.Millisecond,
			},
			Engine: core.Config{Groups: groups, StartMature: true, BalanceTimeout: 2 * time.Second},
		}, &ipmgr.FakeBackend{}, nil)
		if err != nil {
			cleanup()
			t.Fatal(err)
		}
		node.SetHealth(health.NewMonitor(health.Options{
			Node: addr, Metrics: registry, Tracer: tracer,
		}))
		srv, err := ctl.Serve("127.0.0.1:0", loop, node)
		if err != nil {
			cleanup()
			t.Fatal(err)
		}
		stop := func() { _ = srv.Close(); cleanup() }
		d := &healthDaemon{node: node, loop: loop, tracer: tracer, reg: registry, control: srv.Addr(), cleanup: stop}
		startErr := make(chan error, 1)
		loop.Post(func() { startErr <- node.Start() })
		if err := <-startErr; err != nil {
			stop()
			t.Fatal(err)
		}
		daemons[i] = d
	}

	status := func(d *healthDaemon) core.Status {
		out := make(chan core.Status, 1)
		d.loop.Post(func() { out <- d.node.Status() })
		return <-out
	}
	waitFor := func(desc string, limit time.Duration, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(limit)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", desc)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	waitFor("cluster formation", 15*time.Second, func() bool {
		held := 0
		for _, d := range daemons {
			st := status(d)
			if st.State != core.StateRun || len(st.Members) != len(peers) {
				return false
			}
			held += len(st.Owned)
		}
		return held == len(groups)
	})

	// Full N×N matrix: every daemon's health: line names both peers, each
	// backed by enough inter-arrival samples for phi to be defined. Peers
	// off the token path are sampled only at heartbeat cadence, so a
	// matured window needs a second or two of steady state — killing
	// earlier would make the shadow detector abstain for lack of data.
	waitFor("fully populated suspicion matrix", 15*time.Second, func() bool {
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
		if n := counterTotal(d.reg.Snapshot(), "health_suspicions_total"); n != 0 {
			t.Fatalf("%s: health_suspicions_total = %v in steady state, want 0", peers[i], n)
		}
	}

	// Who owns each VIP, as `wackactl status` answers: every daemon's
	// table: lines agree with the owned: lines, which cover every group
	// exactly once.
	var owned []string
	waitFor("status tables agreeing with the owned: lines", 15*time.Second, func() bool {
		var agree bool
		owned, agree = ownership(daemons, len(groups))
		return agree
	})
	coversOnce(t, "steady state", owned, groups)
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
	daemons[victim].cleanup()
	daemons[victim].cleanup = nil
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
	for deadline := time.Now().Add(10 * time.Second); !suspectedEverywhere(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("survivors never suspected %s: on their health: line %v, on health_phi %v",
				victimAddr, inStatus, inMetrics)
		}
		for i, d := range survivors {
			if phi, ok := healthValues(d.statusText(), "phi")[victimAddr]; ok && phi >= health.Threshold {
				inStatus[i] = true
			}
			if milli, ok := phiSeries(d.reg.Snapshot(), victimAddr); ok && milli >= health.Threshold*1000 {
				inMetrics[i] = true
			}
		}
	}

	waitFor("fail-over", 15*time.Second, func() bool {
		held := 0
		for _, d := range survivors {
			st := status(d)
			if st.State != core.StateRun || len(st.Members) != 2 {
				return false
			}
			held += len(st.Owned)
		}
		return held == len(groups)
	})

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
		snap := d.reg.Snapshot()
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
		}
	}
	if leads < 1 {
		t.Fatalf("no survivor recorded a detection lead: %s", strings.Join(gathers, "; "))
	}
	waitFor("survivors' tables agreeing with their owned: lines", 15*time.Second, func() bool {
		var agree bool
		owned, agree = ownership(survivors, len(groups))
		return agree
	})
	coversOnce(t, "after the fail-over", owned, groups)
}

// healthDaemon is one real daemon of the live cluster.
type healthDaemon struct {
	node    *wackamole.Node
	loop    *realtime.Loop
	tracer  *obs.Tracer
	reg     *metrics.Registry
	control string // the control channel's address
	cleanup func()
}

// statusText asks the daemon's control channel for its status, as
// `wackactl status` does; a failed request reads as an error line.
func (d *healthDaemon) statusText() string {
	reply, err := ctl.Send(d.control, ctl.CmdStatus)
	if err != nil {
		return "error: " + err.Error()
	}
	return reply
}

// ownership reads who owns each VIP off the daemons' status texts. It
// returns every group their owned: lines name, and whether each daemon's
// table: lines list exactly groups entries, each assigned to the member
// whose owned: line holds it.
func ownership(ds []*healthDaemon, groups int) (owned []string, agree bool) {
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
		if table != groups {
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

// coversOnce fails unless owned names every group exactly once.
func coversOnce(t *testing.T, when string, owned []string, groups []core.VIPGroup) {
	t.Helper()
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
