package main

// The live-cluster harness: real daemons on loopback UDP, each booted from
// its own configuration file by build and start, the wiring run uses. A
// test writes the directives it needs; the harness adds bind and peers,
// boots the daemons, answers status queries, kills a daemon abruptly, and
// on cleanup stops the rest as run does and fails the test if goroutines
// outlive the cluster.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"wackamole/internal/core"
)

// leakDeadline is how long a torn-down cluster's goroutines get to exit. A
// wall timer armed before teardown can still fire on a runtime goroutine
// (the post to the closed loop is dropped), and the longest timer the live
// configurations arm is the 2 s balance timeout.
const leakDeadline = 5 * time.Second

// liveConf is the configuration the live tests share, plus extra: the
// tuned Table 1 timeouts, a 2 s balance, a 1 s maturity bootstrap, three
// groups web1..web3 at 10.9.<subnet>.100..102, and the dry-run exec backend.
func liveConf(subnet int, extra ...string) []string {
	conf := []string{
		"fault_detect 800ms",
		"heartbeat 200ms",
		"discovery 600ms",
		"balance 2s",
		"mature 1s",
		"dry_run true",
	}
	for i := 1; i <= liveGroups; i++ {
		conf = append(conf, fmt.Sprintf("vip web%d 10.9.%d.%d", i, subnet, 99+i))
	}
	return append(conf, extra...)
}

// liveGroups is how many vip groups liveConf configures.
const liveGroups = 3

// liveCluster is one live test's daemons.
type liveCluster struct {
	t       *testing.T
	daemons []*daemon
	logs    []*syncBuilder // each daemon's notices
	down    []bool         // killed or stopped
}

// bootCluster writes one configuration per address in peers, conf plus
// its bind and peers lines, and boots a daemon from each. attach, when not
// nil, runs between build and start, while no protocol event has happened
// yet. Cleanup stops the daemons still up and then checks for leaked
// goroutines.
func bootCluster(t *testing.T, peers []string, conf []string, attach func(i int, d *daemon)) *liveCluster {
	t.Helper()
	goroutines := runtime.NumGoroutine()
	c := &liveCluster{t: t, daemons: make([]*daemon, len(peers)),
		logs: make([]*syncBuilder, len(peers)), down: make([]bool, len(peers))}
	t.Cleanup(func() {
		for i, d := range c.daemons {
			if d != nil && !c.down[i] {
				d.stop(c.logs[i])
				c.down[i] = true
			}
		}
		if t.Failed() {
			for i, log := range c.logs {
				if log != nil {
					t.Logf("%s notices:\n%s", peers[i], log.String())
				}
			}
		}
		checkGoroutines(t, goroutines)
	})
	dir := t.TempDir()
	for i, addr := range peers {
		path := filepath.Join(dir, fmt.Sprintf("wackamole-%d.conf", i))
		lines := append([]string{"bind " + addr, "peers " + strings.Join(peers, " ")}, conf...)
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o600); err != nil {
			t.Fatal(err)
		}
		c.logs[i] = &syncBuilder{}
		d, err := build(path, false, c.logs[i])
		if err != nil {
			t.Fatalf("%s: %v", addr, err)
		}
		if attach != nil {
			attach(i, d)
		}
		if err := d.start(c.logs[i]); err != nil {
			t.Fatalf("%s: %v", addr, err)
		}
		c.daemons[i] = d
	}
	return c
}

// checkGoroutines fails t unless the goroutine count falls back to want
// within leakDeadline, printing what is still running.
func checkGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(leakDeadline)
	n := runtime.NumGoroutine()
	for ; n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(20 * time.Millisecond)
	}
	if n > want {
		var stacks strings.Builder
		_ = pprof.Lookup("goroutine").WriteTo(&stacks, 1)
		t.Errorf("%d goroutines %v after teardown, %d before the cluster booted:\n%s",
			n, leakDeadline, want, stacks.String())
	}
}

// kill ends daemon i abruptly: its listeners, socket and loop close with
// no node.Stop, so it releases nothing and says no goodbye.
func (c *liveCluster) kill(i int) {
	d := c.daemons[i]
	if d.ctlSrv != nil {
		_ = d.ctlSrv.Close()
	}
	if d.obsSrv != nil {
		_ = d.obsSrv.Close()
	}
	_ = d.conn.Close()
	d.loop.Close()
	c.down[i] = true
}

// status asks the daemon's loop for its engine snapshot.
func (d *daemon) status() core.Status {
	out := make(chan core.Status, 1)
	d.loop.Post(func() { out <- d.node.Status() })
	return <-out
}

// waitFor polls cond until it holds, failing the test after limit. It
// logs how much of limit the wait used: the margin the assertion kept.
func (c *liveCluster) waitFor(desc string, limit time.Duration, cond func() bool) {
	c.t.Helper()
	start := time.Now()
	for !cond() {
		if time.Since(start) > limit {
			c.t.Fatalf("timed out after %v waiting for %s", limit, desc)
		}
		time.Sleep(20 * time.Millisecond)
	}
	c.t.Logf("margin: %s took %v of its %v", desc, time.Since(start).Round(time.Millisecond), limit)
}

// formed reports whether every daemon in ds is in RUN with len(ds)
// members and together they hold liveGroups groups.
func formed(ds ...*daemon) bool {
	held := 0
	for _, d := range ds {
		st := d.status()
		if st.State != core.StateRun || len(st.Members) != len(ds) {
			return false
		}
		held += len(st.Owned)
	}
	return held == liveGroups
}
