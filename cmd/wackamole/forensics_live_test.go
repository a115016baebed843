package main

// End-to-end forensics over a live (non-simulated) cluster: three daemons on
// loopback UDP, each booted from its configuration file by the daemon's own
// wiring, with its own tracer, HLC and flight recorder, exchange HLC stamps
// over the wire; one daemon is killed abruptly (socket and loop vanish, no
// releases, no goodbyes) while a probe measures the resulting coverage gap
// from the outside. The bundles the survivors spill on `wackactl dump` (plus
// the victim's pre-crash tail) are then merged by internal/forensics, as
// wacktrace merges them, and the merged timeline must explain the
// probe-measured gap exactly — the same detection/membership/state-sync/ARP
// decomposition the simulator reports, recovered from bundles alone. Run
// under -race this also pins the claim that tracer, HLC, recorder and
// protocol loop may interleave freely.
//
// When WACK_FORENSICS_DIR is set the bundles and the measured gaps.json are
// written there instead of a temp dir, so the CI live job can hand them to
// the wacktrace binary and archive them.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"wackamole/internal/ctl"
	"wackamole/internal/forensics"
)

func TestForensicsLiveCluster(t *testing.T) {
	peers := []string{"127.0.0.1:24940", "127.0.0.1:24941", "127.0.0.1:24942"}
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
	c := bootCluster(t, peers, liveConf(1, "flight_dir "+flightDir, "control 127.0.0.1:0"), nil)
	daemons := c.daemons

	c.waitFor("cluster formation", 15*time.Second, func() bool { return formed(daemons...) })

	// Pick a victim that owns at least one VIP group; the group's address is
	// what the outside world will miss when it dies. (Status.Owned lists
	// group names; trace events carry the addresses.)
	victim := -1
	var targetGroup, target string
	for i, d := range daemons {
		if owned := d.status().Owned; len(owned) > 0 {
			victim, targetGroup = i, owned[0]
			break
		}
	}
	if victim < 0 {
		t.Fatal("no daemon owns a group after formation")
	}
	for _, g := range daemons[victim].cfg.Groups {
		if g.Name == targetGroup {
			target = g.Addrs[0].String()
		}
	}
	if target == "" {
		t.Fatalf("no address for group %s", targetGroup)
	}
	survivors := slices.Delete(slices.Clone(daemons), victim, victim+1)

	// Abrupt kill: close the socket and loop out from under the protocol —
	// no Stop, no releases. The probe gap starts the instant the plug is
	// pulled and ends when any survivor covers the orphaned address.
	gapStart := time.Now()
	c.kill(victim)
	var gapEnd time.Time
	c.waitFor("fail-over of "+targetGroup, 15*time.Second, func() bool {
		for _, d := range survivors {
			if slices.Contains(d.status().Owned, targetGroup) {
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
		reply, err := ctl.Send(d.ctlSrv.Addr(), "dump")
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
	t.Logf("margin: the %v gap opened with a %v detection phase; phases %+v",
		f.Gap.Round(time.Millisecond), f.Phases.Detection.Round(time.Millisecond), f.Phases)
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
