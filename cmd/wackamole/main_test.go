package main

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"wackamole"
	"wackamole/internal/ctl"
	"wackamole/internal/metrics"
	"wackamole/internal/obs"
)

// activityCounters are the twelve series registerActivityCounters adds.
var activityCounters = []string{
	"gcs_memberships_installed", "gcs_reconfigurations", "gcs_tokens_forwarded",
	"gcs_data_sent", "gcs_data_retransmitted", "gcs_data_delivered", "gcs_recovery_flushes",
	"core_acquires", "core_releases", "core_announces",
	"obs_events_emitted", "obs_events_dropped",
}

// TestActivityCountersMirrorStats pins the registry views of the protocol's
// activity counts against the place the counts live: on a settled simulated
// server, every series reads exactly what Stats() and the tracer report, and
// keeps doing so as they move.
func TestActivityCountersMirrorStats(t *testing.T) {
	tracer := obs.New(8, nil) // a ring smaller than one settle: obs_events_dropped must move
	c, err := wackamole.NewCluster(wackamole.ClusterOptions{Seed: 5, Servers: 2, VIPs: 4, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	node := c.Servers[0].Node
	reg := metrics.New()
	registerActivityCounters(reg, node)
	check := func() {
		t.Helper()
		ds, es := node.Daemon().Stats(), node.Engine().Stats()
		want := map[string]uint64{
			"gcs_memberships_installed": ds.MembershipsInstalled,
			"gcs_reconfigurations":      ds.Reconfigurations,
			"gcs_tokens_forwarded":      ds.TokensForwarded,
			"gcs_data_sent":             ds.DataSent,
			"gcs_data_retransmitted":    ds.DataRetransmitted,
			"gcs_data_delivered":        ds.DataDelivered,
			"gcs_recovery_flushes":      ds.RecoveryFlushes,
			"core_acquires":             es.Acquires,
			"core_releases":             es.Releases,
			"core_announces":            es.Announces,
			"obs_events_emitted":        tracer.Emitted(),
			"obs_events_dropped":        tracer.Dropped(),
		}
		snap := reg.Snapshot()
		if len(snap.Families) != len(activityCounters) {
			t.Fatalf("%d families, want %d", len(snap.Families), len(activityCounters))
		}
		for _, name := range activityCounters {
			f := snap.Family(name)
			if f == nil || f.Kind != metrics.KindCounter || f.Help == "" || len(f.Series) != 1 {
				t.Fatalf("family %s = %+v, want one documented counter series", name, f)
			}
			if got := uint64(f.Series[0].Value); got != want[name] {
				t.Fatalf("%s = %d, Stats reports %d", name, got, want[name])
			}
		}
	}
	c.Settle()
	check()
	if node.Daemon().Stats().TokensForwarded == 0 || tracer.Dropped() == 0 {
		t.Fatal("vacuous: the settled server forwarded no token or dropped no event")
	}
	c.FailServer(1)
	c.Settle()
	check()
}

func TestRunRejectsBadFlags(t *testing.T) {
	if code := run([]string{"-bogus"}, nil, os.Stderr); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

func TestRunRejectsMissingConfig(t *testing.T) {
	var buf strings.Builder
	if code := run([]string{"-config", "/nonexistent.conf"}, nil, &buf); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(buf.String(), "wackamole:") {
		t.Fatalf("no diagnostic: %q", buf.String())
	}
}

func TestRunRejectsUnbindableAddress(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wackamole.conf")
	conf := "bind 203.0.113.7:1\npeers 203.0.113.7:1\nvip v 10.0.0.100\n"
	if err := os.WriteFile(path, []byte(conf), 0o600); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if code := run([]string{"-config", path}, nil, &buf); code != 1 {
		t.Fatalf("exit = %d, want 1 (output %q)", code, buf.String())
	}
}

// TestDaemonEndToEnd boots a real singleton daemon from a config file,
// talks to it over the control channel, and shuts it down via the stop
// channel — the full production path minus raw sockets.
func TestDaemonEndToEnd(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wackamole.conf")
	conf := strings.Join([]string{
		"bind 127.0.0.1:24899",
		"peers 127.0.0.1:24899",
		"control 127.0.0.1:24898",
		"fault_detect 500ms",
		"heartbeat 100ms",
		"discovery 300ms",
		"vip web1 10.0.0.100",
		"vip web2 10.0.0.101",
		"dry_run true",
	}, "\n") + "\n"
	if err := os.WriteFile(path, []byte(conf), 0o600); err != nil {
		t.Fatal(err)
	}

	stop := make(chan os.Signal)
	var buf syncBuilder
	done := make(chan int, 1)
	go func() { done <- run([]string{"-config", path}, stop, &buf) }()

	// Wait for the singleton to form and take both addresses (dry run).
	deadline := time.Now().Add(15 * time.Second)
	for {
		reply, err := ctl.Send("127.0.0.1:24898", ctl.CmdStatus)
		if err == nil && strings.Contains(reply, "state:   run") && strings.Contains(reply, "web1 web2") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never reached RUN; last reply %q err %v\nlog:\n%s", reply, err, buf.String())
		}
		time.Sleep(100 * time.Millisecond)
	}

	close(stop)
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit = %d\nlog:\n%s", code, buf.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	out := buf.String()
	if !strings.Contains(out, "daemon 127.0.0.1:24899 up") {
		t.Fatalf("missing startup banner:\n%s", out)
	}
	// The dry-run exec backend must have logged the `ip addr add` commands.
	if !strings.Contains(out, "acquired 10.0.0.100") {
		t.Fatalf("missing dry-run acquisition log:\n%s", out)
	}
}

// TestDaemonInvariantsOnMetrics boots a singleton daemon with the
// always-on invariant monitors armed and verifies the invariant_* counter
// families turn up on the /metrics endpoint with zero violations, and that
// `wackactl status` reports the same verdict on its invariants: line.
func TestDaemonInvariantsOnMetrics(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wackamole.conf")
	conf := strings.Join([]string{
		"bind 127.0.0.1:24895",
		"peers 127.0.0.1:24895",
		"metrics 127.0.0.1:24894",
		"control 127.0.0.1:24893",
		"fault_detect 500ms",
		"heartbeat 100ms",
		"discovery 300ms",
		"invariants true",
		"vip web1 10.0.0.100",
		"dry_run true",
	}, "\n") + "\n"
	if err := os.WriteFile(path, []byte(conf), 0o600); err != nil {
		t.Fatal(err)
	}

	stop := make(chan os.Signal)
	var buf syncBuilder
	done := make(chan int, 1)
	go func() { done <- run([]string{"-config", path}, stop, &buf) }()

	scrape := func() string {
		resp, err := http.Get("http://127.0.0.1:24894/metrics")
		if err != nil {
			return ""
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return ""
		}
		return string(body)
	}
	deadline := time.Now().Add(15 * time.Second)
	var body string
	for {
		body = scrape()
		// The singleton's first view installation is the signal the monitor
		// is armed and observing.
		if strings.Contains(body, "invariant_view_events_total 1") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("invariant families never appeared on /metrics; last scrape:\n%s\nlog:\n%s",
				body, buf.String())
		}
		time.Sleep(100 * time.Millisecond)
	}
	if !strings.Contains(body, "invariant_violations_total 0") {
		t.Fatalf("violations counter missing or nonzero:\n%s", body)
	}
	for _, family := range []string{"invariant_delivery_events_total", "invariant_ownership_events_total"} {
		if !strings.Contains(body, family) {
			t.Fatalf("family %s missing from /metrics:\n%s", family, body)
		}
	}
	// One surface: every family, the protocol activity counters included,
	// is announced by exactly one TYPE line.
	types := map[string]int{}
	for _, line := range strings.Split(body, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			types[f[2]]++
		}
	}
	for name, n := range types {
		if n != 1 {
			t.Fatalf("family %s has %d TYPE lines, want 1:\n%s", name, n, body)
		}
	}
	for _, name := range activityCounters {
		if types[name] != 1 || !strings.Contains(body, "# TYPE "+name+" counter\n"+name+" ") {
			t.Fatalf("activity counter %s missing from /metrics:\n%s", name, body)
		}
	}
	if !strings.Contains(body, "\ngcs_memberships_installed 1\n") {
		t.Fatalf("singleton's one membership install not on /metrics:\n%s", body)
	}
	reply, err := ctl.Send("127.0.0.1:24893", ctl.CmdStatus)
	if err != nil || !strings.Contains(reply, "\ninvariants: violations=0 (") {
		t.Fatalf("wackactl status lacks a clean invariants: line; reply %q err %v", reply, err)
	}

	close(stop)
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit = %d\nlog:\n%s", code, buf.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	if strings.Contains(buf.String(), "invariant violation") {
		t.Fatalf("healthy singleton logged a violation:\n%s", buf.String())
	}
}

// syncBuilder is a strings.Builder safe for the daemon goroutine + test
// goroutine.
type syncBuilder struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuilder) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuilder) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
