package ctl

import (
	"io"
	"net"
	"net/netip"
	"strings"
	"testing"
	"time"

	"wackamole"
	"wackamole/internal/core"
	"wackamole/internal/env/realtime"
	"wackamole/internal/gcs"
	"wackamole/internal/ipmgr"
	"wackamole/internal/metrics"
)

// liveNode spins up a real single-daemon node over loopback UDP. A
// singleton needs no broadcast peers: the daemon processes its own control
// messages inline and the token loops back over unicast.
func liveNode(t *testing.T, mods ...func(*gcs.Config)) (*wackamole.Node, *realtime.Loop) {
	t.Helper()
	return liveNodeMeasured(t, nil, mods...)
}

// liveNodeMeasured is liveNode with a latency registry on the node's Env.
func liveNodeMeasured(t *testing.T, reg *metrics.Registry, mods ...func(*gcs.Config)) (*wackamole.Node, *realtime.Loop) {
	t.Helper()
	e, loop, cleanup, err := realtime.NewEnv("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.Metrics = reg
	gcsCfg := gcs.TunedConfig()
	// Shrink discovery so the singleton forms fast in wall-clock time.
	gcsCfg.DiscoveryTimeout = 300 * time.Millisecond
	gcsCfg.FaultDetectTimeout = 500 * time.Millisecond
	gcsCfg.HeartbeatInterval = 100 * time.Millisecond
	for _, mod := range mods {
		mod(&gcsCfg)
	}

	node, err := wackamole.NewNode(e, wackamole.Config{
		GCS: gcsCfg,
		Engine: core.Config{
			Groups: []core.VIPGroup{
				{Name: "web1", Addrs: []netip.Addr{netip.MustParseAddr("10.0.0.100")}},
				{Name: "web2", Addrs: []netip.Addr{netip.MustParseAddr("10.0.0.101")}},
			},
			StartMature: true,
		},
	}, &ipmgr.FakeBackend{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	startErr := make(chan error, 1)
	loop.Post(func() { startErr <- node.Start() })
	if err := <-startErr; err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		stopped := make(chan struct{})
		loop.Post(func() { node.Stop(); close(stopped) })
		<-stopped
		cleanup()
	})
	return node, loop
}

func TestControlChannelEndToEnd(t *testing.T) {
	node, loop := liveNode(t)
	srv, err := Serve("127.0.0.1:0", loop, node)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.Close(); err != nil {
			t.Error(err)
		}
	}()

	// Wait for the singleton to form and cover its groups.
	deadline := time.Now().Add(10 * time.Second)
	for {
		reply, err := Send(srv.Addr(), CmdStatus)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(reply, "state:   run") && strings.Contains(reply, "web1") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("node never reached RUN; last status:\n%s", reply)
		}
		time.Sleep(100 * time.Millisecond)
	}

	reply, err := Send(srv.Addr(), cmdHelp)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(reply, "status") {
		t.Fatalf("help reply: %q", reply)
	}

	reply, err = Send(srv.Addr(), cmdBalance)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(reply, "balance triggered") {
		t.Fatalf("balance reply: %q", reply)
	}

	// "leave" was once a synonym for drain; drain is the one command now.
	for _, cmd := range []string{"bogus", "leave"} {
		reply, err = Send(srv.Addr(), cmd)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(reply, "unknown command") {
			t.Fatalf("%s reply: %q", cmd, reply)
		}
	}

	reply, err = Send(srv.Addr(), cmdDrain)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(reply, "left service") {
		t.Fatalf("drain reply: %q", reply)
	}
	reply, err = Send(srv.Addr(), CmdStatus)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(reply, "state:   detached") {
		t.Fatalf("post-drain status:\n%s", reply)
	}

	// Drained twice is an error; join re-admits and the singleton re-forms.
	reply, err = Send(srv.Addr(), cmdDrain)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(reply, "error:") {
		t.Fatalf("double drain reply: %q", reply)
	}
	reply, err = Send(srv.Addr(), cmdJoin)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(reply, "rejoining") {
		t.Fatalf("join reply: %q", reply)
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		reply, err = Send(srv.Addr(), CmdStatus)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(reply, "state:   run") && strings.Contains(reply, "web1") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("node never re-entered RUN after join; last status:\n%s", reply)
		}
		time.Sleep(100 * time.Millisecond)
	}
	reply, err = Send(srv.Addr(), cmdJoin)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(reply, "error:") {
		t.Fatalf("join while in service reply: %q", reply)
	}
}

// TestOverlongLineRefused: a client that never sends a newline gets an
// error once the line outgrows maxLine, instead of the server buffering it
// until the deadline; the next command on a new connection still answers.
func TestOverlongLineRefused(t *testing.T) {
	node, loop := liveNode(t)
	srv, err := Serve("127.0.0.1:0", loop, node)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte(strings.Repeat("x", 4096))); err != nil {
		t.Fatal(err)
	}
	// The reply arrives before the server's close, so a reset that follows
	// it does not matter.
	reply, _ := io.ReadAll(conn)
	if !strings.HasPrefix(string(reply), "error: command line longer than") {
		t.Fatalf("over-long line reply: %q", reply)
	}

	reply2, err := Send(srv.Addr(), CmdStatus)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(reply2, "member:") {
		t.Fatalf("status after an over-long line:\n%s", reply2)
	}
}

func TestSendConnectionRefused(t *testing.T) {
	if _, err := Send("127.0.0.1:1", CmdStatus); err == nil {
		t.Fatal("Send to a dead address succeeded")
	}
}

func TestFormatStatusListsUncovered(t *testing.T) {
	node, _ := liveNode(t)
	out := formatStatus(node)
	if !strings.Contains(out, "member:") || !strings.Contains(out, "state:") {
		t.Fatalf("status output:\n%s", out)
	}
	if !strings.Contains(out, "placement: policy=least-loaded") {
		t.Fatalf("status output missing placement line:\n%s", out)
	}
	if strings.Contains(out, "latency:") {
		t.Fatalf("latency line without a registry:\n%s", out)
	}
}

// The status response names the active failure detector so an operator can
// confirm which regime a node runs without reading its config file.
func TestFormatStatusReportsDetector(t *testing.T) {
	fixed, _ := liveNode(t)
	out := formatStatus(fixed)
	if !strings.Contains(out, "detect:  fixed (T=500ms)") {
		t.Fatalf("status output missing fixed detector line:\n%s", out)
	}

	phi, _ := liveNode(t, func(c *gcs.Config) { c.Detector = gcs.DetectorPhi })
	out = formatStatus(phi)
	if !strings.Contains(out, "detect:  phi (threshold 8.0, floor T=500ms)") {
		t.Fatalf("status output missing phi detector line:\n%s", out)
	}
}

func TestFormatStatusLatencySummary(t *testing.T) {
	node, _ := liveNodeMeasured(t, metrics.New())

	// Wait for the singleton's token to rotate a few times so the rotation
	// histogram has observations.
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap := node.Metrics().Snapshot()
		if snap.MergedHistogram("gcs_token_rotation_seconds").Count() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("token rotation histogram never observed")
		}
		time.Sleep(100 * time.Millisecond)
	}

	out := formatStatus(node)
	if !strings.Contains(out, "latency: rotation p50=") || !strings.Contains(out, "delivery p99=") {
		t.Fatalf("status output missing latency summary:\n%s", out)
	}
}
