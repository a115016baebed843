package wackamole_test

// Live health plane end to end: three real daemons on loopback UDP, each
// with the full production wiring (tracer, HLC, metrics, health monitor),
// stream telemetry frames to a subscribing UDP socket — the same feed
// `wackmon -subscribe` renders. Steady state must populate the full N×N
// suspicion matrix with zero false suspicions and a frame-derived ownership
// map that matches the daemons' own status (the `wackactl status` ground
// truth). An abrupt kill must drive every survivor's shadow phi over its
// threshold at or before the fixed T-timeout detection, asserted both
// through the monitors' counters and through the HLC-ordered trace. Run
// under -race this also pins that monitor, publisher, tracer and protocol
// loop may interleave freely.
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

	// The subscriber: a plain UDP socket collecting every frame, exactly
	// what wackmon -subscribe listens on.
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

	type daemon struct {
		node    *wackamole.Node
		loop    *realtime.Loop
		tracer  *obs.Tracer
		reg     *metrics.Registry
		cleanup func()
	}
	daemons := make([]*daemon, len(peers))
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
		d := &daemon{node: node, loop: loop, tracer: tracer, reg: registry, cleanup: cleanup}
		startErr := make(chan error, 1)
		loop.Post(func() { startErr <- node.Start() })
		if err := <-startErr; err != nil {
			cleanup()
			t.Fatal(err)
		}
		loop.Post(func() { node.StartTelemetry(100*time.Millisecond, []string{subAddr}) })
		daemons[i] = d
	}

	status := func(d *daemon) core.Status {
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

	// The frame-derived ownership map (what wackmon renders) must match the
	// daemons' own status — the wackactl ground truth — VIP for VIP.
	// Frames trail live status by up to one publish interval, so the match
	// is awaited, not sampled once.
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
	// The wackactl status health line renders from the same monitors.
	for _, d := range daemons {
		lines := make(chan string, 1)
		d.loop.Post(func() { lines <- ctl.FormatStatus(d.node) })
		if st := <-lines; !strings.Contains(st, "health:") || !strings.Contains(st, "phi=") {
			t.Fatalf("status output lacks the health line:\n%s", st)
		}
	}

	// Abrupt kill: socket and loop vanish, no goodbyes. Every survivor's
	// shadow detector must suspect the victim before its own T timeout.
	victim := 2
	victimAddr := peers[victim]
	daemons[victim].cleanup()
	daemons[victim].cleanup = nil
	survivors := daemons[:2]

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
