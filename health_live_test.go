package wackamole_test

// Live health plane end to end: three real daemons on loopback UDP, each
// with the full production wiring (tracer, HLC, metrics, health monitor),
// stream telemetry frames to a subscribing UDP socket. The live questions
// are asked through the surfaces that answer them: each daemon's
// `wackactl status` text, asked over its control channel, and its
// registry, which is what /metrics serves. Steady state must populate the
// full N×N suspicion matrix with zero false suspicions: every status
// `health:` line names both peers below the threshold, the `owned:` lines
// cover every group exactly once, and the frame-derived ownership map
// matches them. An abrupt kill
// must make every survivor's `health:` line and `health_phi` series suspect
// the victim, and drive its shadow phi over the threshold at or before the
// fixed T-timeout detection, asserted both through the monitors' counters
// and through the HLC-ordered trace. Run under -race this also pins that
// monitor, publisher, tracer, scrape and protocol loop may interleave
// freely.
//
// When WACK_HEALTH_DIR is set the captured frame stream is written there as
// frames.ndjson, so the CI live job can archive it.

import (
	"bufio"
	"encoding/json"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
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
	artifactDir := os.Getenv("WACK_HEALTH_DIR")
	if artifactDir == "" {
		artifactDir = t.TempDir()
	} else {
		if err := os.RemoveAll(artifactDir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(artifactDir, 0o755); err != nil {
			t.Fatal(err)
		}
	}

	// The subscriber: a plain UDP socket collecting every frame the
	// daemons' `telemetry` directive would push.
	sub, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	var frameMu sync.Mutex
	var captured []health.Frame
	go func() {
		buf := make([]byte, 64*1024)
		for {
			n, _, err := sub.ReadFrom(buf)
			if err != nil {
				return
			}
			f, err := health.DecodeFrame(buf[:n])
			if err != nil {
				continue
			}
			frameMu.Lock()
			captured = append(captured, f)
			frameMu.Unlock()
		}
	}()
	subAddr := sub.LocalAddr().String()

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
		loop.Post(func() { node.StartTelemetry(100*time.Millisecond, []string{subAddr}) })
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
	latestByNode := func() map[string]health.Frame {
		frameMu.Lock()
		defer frameMu.Unlock()
		byNode := make(map[string]health.Frame)
		for _, f := range captured {
			byNode[f.Node] = f
		}
		return byNode
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

	// Full N×N matrix: every node's frame carries a suspicion vector with
	// both peers, each backed by enough inter-arrival samples for phi to be
	// defined. Peers off the token path are sampled only at heartbeat
	// cadence, so a matured window needs a second or two of steady state —
	// killing earlier would make the shadow detector abstain for lack of
	// data.
	waitFor("fully populated suspicion matrix", 15*time.Second, func() bool {
		byNode := latestByNode()
		if len(byNode) != len(peers) {
			return false
		}
		for _, f := range byNode {
			if len(f.Peers) != len(peers)-1 {
				return false
			}
			for _, p := range f.Peers {
				if p.Samples < 5 {
					return false
				}
			}
		}
		return true
	})

	// Zero false suspicions in steady state — across every frame published
	// since boot, not just the latest.
	frameMu.Lock()
	preKill := len(captured)
	for _, f := range captured {
		for _, p := range f.Peers {
			if p.Suspected {
				frameMu.Unlock()
				t.Fatalf("steady-state false suspicion: %s -> %+v", f.Node, p)
			}
		}
	}
	frameMu.Unlock()
	if preKill == 0 {
		t.Fatal("no frames captured before the kill")
	}

	// The frame-derived ownership map must match the daemons' own status —
	// the wackactl ground truth — VIP for VIP. Frames trail live status by
	// up to one publish interval, so the match is awaited, not sampled once.
	waitFor("frame ownership matching status ownership", 15*time.Second, func() bool {
		byNode := latestByNode()
		for i, d := range daemons {
			f, ok := byNode[peers[i]]
			if !ok {
				return false
			}
			if strings.Join(f.Owned, ",") != strings.Join(status(d).Owned, ",") {
				return false
			}
		}
		return true
	})
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
		phis := healthPhis(st)
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
			if phi, ok := healthPhis(d.statusText())[victimAddr]; ok && phi >= health.Threshold {
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
	// detection with a recorded lead must exist cluster-wide.
	leads := 0
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
		for _, ev := range d.tracer.Snapshot() {
			ev := ev
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
		t.Fatal("no survivor recorded a detection lead")
	}
	waitFor("survivors' tables agreeing with their owned: lines", 15*time.Second, func() bool {
		var agree bool
		owned, agree = ownership(survivors, len(groups))
		return agree
	})
	coversOnce(t, "after the fail-over", owned, groups)

	// Survivors' post-kill frames converge on the reconfigured world: a
	// 2-member view with the victim gone from the suspicion vector.
	waitFor("post-failover frames", 15*time.Second, func() bool {
		for _, addr := range peers[:2] {
			f, ok := latestByNode()[addr]
			if !ok || len(f.Members) != 2 || len(f.Peers) != 1 {
				return false
			}
			if f.Peers[0].Peer == victimAddr {
				return false
			}
		}
		return true
	})

	// Archive the full frame stream for the CI job (and humans).
	frameMu.Lock()
	frames := make([]health.Frame, len(captured))
	copy(frames, captured)
	frameMu.Unlock()
	out, err := os.Create(filepath.Join(artifactDir, "frames.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(out)
	enc := json.NewEncoder(w)
	for i := range frames {
		if err := enc.Encode(&frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
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

// healthPhis parses a status health: line ("peer phi=P margin=M last=L | …
// frames pub=N drop=N") into each peer's phi.
func healthPhis(status string) map[string]float64 {
	phis := map[string]float64{}
	for _, part := range strings.Split(strings.Join(statusLine(status, "health:"), " "), " | ") {
		fields := strings.Fields(part)
		if len(fields) < 2 {
			continue
		}
		if v, ok := strings.CutPrefix(fields[1], "phi="); ok {
			if phi, err := strconv.ParseFloat(v, 64); err == nil {
				phis[fields[0]] = phi
			}
		}
	}
	return phis
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
