package wackamole_test

// End-to-end forensics over a live (non-simulated) cluster: three real
// daemons on loopback UDP, each with its own tracer, HLC and flight
// recorder, exchange HLC stamps over the wire; one daemon is killed
// abruptly (socket and loop vanish, no releases, no goodbyes) while a probe
// measures the resulting coverage gap from the outside. The bundles the
// survivors spill on `wackactl dump` (plus the victim's pre-crash tail) are
// then merged by internal/forensics, as wacktrace merges them, and the merged
// timeline must explain the probe-measured gap exactly — the same
// detection/membership/state-sync/ARP decomposition the simulator reports,
// recovered from bundles alone. Run under -race this also pins the claim
// that tracer, HLC, recorder and protocol loop may interleave freely.
//
// When WACK_FORENSICS_DIR is set the bundles and the measured gaps.json are
// written there instead of a temp dir, so the CI live job can hand them to
// the wacktrace binary and archive them.

import (
	"bytes"
	"encoding/json"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wackamole"
	"wackamole/internal/core"
	"wackamole/internal/ctl"
	"wackamole/internal/env/realtime"
	"wackamole/internal/forensics"
	"wackamole/internal/gcs"
	"wackamole/internal/ipmgr"
	"wackamole/internal/metrics"
	"wackamole/internal/obs"
)

func TestForensicsLiveCluster(t *testing.T) {
	peers := []string{"127.0.0.1:24940", "127.0.0.1:24941", "127.0.0.1:24942"}
	groups := []core.VIPGroup{
		{Name: "web1", Addrs: []netip.Addr{netip.MustParseAddr("10.9.1.100")}},
		{Name: "web2", Addrs: []netip.Addr{netip.MustParseAddr("10.9.1.101")}},
		{Name: "web3", Addrs: []netip.Addr{netip.MustParseAddr("10.9.1.102")}},
	}
	// The artifact directory is owned by this test: it starts fresh so the
	// bundle set is exactly this run's cluster.
	flightDir := os.Getenv("WACK_FORENSICS_DIR")
	if flightDir == "" {
		flightDir = t.TempDir()
	} else {
		if err := os.RemoveAll(flightDir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(flightDir, 0o755); err != nil {
			t.Fatal(err)
		}
	}

	type daemon struct {
		node     *wackamole.Node
		loop     *realtime.Loop
		recorder *obs.FlightRecorder
		cleanup  func()
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
		// The production wiring from cmd/wackamole: tracer, registry and HLC
		// (piggybacked on the wire by the daemon) ride on the Env; the flight
		// recorder is fed by the membership stream.
		tracer, registry := obs.New(4096, nil), metrics.New()
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
		recorder := obs.NewFlightRecorder(obs.FlightConfig{
			Dir: flightDir, Node: addr, Tracer: tracer, Registry: registry,
		})
		node.Daemon().SetMembershipHandler(func(ring gcs.RingID, members []gcs.DaemonID) {
			ms := make([]string, len(members))
			for j, m := range members {
				ms[j] = string(m)
			}
			recorder.RecordView(ring.String(), ms)
		})
		d := &daemon{node: node, loop: loop, recorder: recorder, cleanup: cleanup}
		startErr := make(chan error, 1)
		loop.Post(func() { startErr <- node.Start() })
		if err := <-startErr; err != nil {
			cleanup()
			t.Fatal(err)
		}
		daemons[i] = d
	}

	status := func(d *daemon) core.Status {
		out := make(chan core.Status, 1)
		d.loop.Post(func() { out <- d.node.Status() })
		return <-out
	}
	owns := func(d *daemon, addr string) bool {
		for _, o := range status(d).Owned {
			if o == addr {
				return true
			}
		}
		return false
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

	// Pick a victim that owns at least one VIP group; the group's address is
	// what the outside world will miss when it dies. (Status.Owned lists
	// group names; trace events carry the addresses.)
	victim := -1
	var targetGroup, target string
	for i, d := range daemons {
		if owned := status(d).Owned; len(owned) > 0 {
			victim, targetGroup = i, owned[0]
			break
		}
	}
	if victim < 0 {
		t.Fatal("no daemon owns a group after formation")
	}
	for _, g := range groups {
		if g.Name == targetGroup {
			target = g.Addrs[0].String()
		}
	}
	if target == "" {
		t.Fatalf("no address for group %s", targetGroup)
	}
	survivors := make([]*daemon, 0, 2)
	for i, d := range daemons {
		if i != victim {
			survivors = append(survivors, d)
		}
	}

	// Abrupt kill: close the socket and loop out from under the protocol —
	// no Stop, no releases. The probe gap starts the instant the plug is
	// pulled and ends when any survivor covers the orphaned address.
	gapStart := time.Now()
	daemons[victim].cleanup()
	daemons[victim].cleanup = nil
	var gapEnd time.Time
	waitFor("fail-over of "+targetGroup, 15*time.Second, func() bool {
		for _, d := range survivors {
			if owns(d, targetGroup) {
				gapEnd = time.Now()
				return true
			}
		}
		return false
	})
	gap := forensics.Gap{Target: target, Start: gapStart, End: gapEnd}
	// Persist the probe's measurement before any assertion, so a failing run
	// leaves complete evidence and the CI wacktrace stage gets its input.
	raw, err := json.MarshalIndent([]forensics.Gap{gap}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(flightDir, "gaps.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Retrieve the black boxes. The victim's recorder still exists in this
	// process (its bundle is the pre-crash tail a real crash would leave on
	// disk); each survivor dumps its post-failover state when asked over its
	// control channel, as `wackactl dump` asks.
	if _, err := daemons[victim].recorder.Dump("live-test"); err != nil {
		t.Fatal(err)
	}
	for _, d := range survivors {
		srv, err := ctl.Serve("127.0.0.1:0", d.loop, d.node)
		if err != nil {
			t.Fatal(err)
		}
		srv.SetRecorder(d.recorder)
		reply, err := ctl.Send(srv.Addr(), "dump")
		if cerr := srv.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		if err != nil || !strings.HasPrefix(reply, "dumped flight bundle") {
			t.Fatalf("wackactl dump: reply %q, err %v", reply, err)
		}
	}

	bundles, err := forensics.LoadBundles(flightDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(bundles) != 3 {
		t.Fatalf("loaded %d bundles, want 3", len(bundles))
	}
	merged := forensics.Merge(bundles)
	if len(merged.Events) == 0 {
		t.Fatal("merged timeline empty")
	}
	// Every node exchanged stamped wire messages, so every trace must carry
	// HLC stamps end to end.
	for _, n := range merged.Nodes {
		if n.Events == 0 || n.Unstamped == n.Events {
			t.Fatalf("node %s contributed no stamped events: %+v", n.Node, n)
		}
	}

	failovers := merged.Reconstruct([]forensics.Gap{gap})
	if len(failovers) != 1 {
		t.Fatalf("reconstructed %d failovers, want 1", len(failovers))
	}
	f := failovers[0]
	if f.Phases.Total() != f.Gap {
		t.Fatalf("phases sum %v != probe-measured gap %v", f.Phases.Total(), f.Gap)
	}
	if f.Phases.Detection <= 0 {
		t.Fatalf("detection phase empty: %+v (survivors suspect only after the fault-detect timeout)", f.Phases)
	}
	if !f.Explained {
		t.Fatalf("the bundles do not explain the probe-measured gap: %+v", f)
	}
	// The acquirer must be a survivor (core events are tagged
	// "daemon/client"; the daemon part is the bind address).
	acquirerDaemon, _, _ := strings.Cut(f.Acquirer, "/")
	if acquirerDaemon == "" || acquirerDaemon == peers[victim] {
		t.Fatalf("acquirer %q is not a survivor (victim %s)", f.Acquirer, peers[victim])
	}

	// Determinism: the same bundles, loaded from disk again and merged
	// again, give a byte-identical timeline.
	reloaded, err := forensics.LoadBundles(flightDir)
	if err != nil {
		t.Fatal(err)
	}
	var first, second bytes.Buffer
	if err := merged.WriteNDJSON(&first); err != nil {
		t.Fatal(err)
	}
	if err := forensics.Merge(reloaded).WriteNDJSON(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("repeated merge not byte-identical")
	}

}
