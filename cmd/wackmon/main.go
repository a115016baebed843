// Command wackmon watches a running Wackamole cluster. It joins the group
// as a permanently immature member: it exchanges STATE_MSGs like everyone
// else (so the algorithm proceeds normally) but never becomes eligible to
// own addresses, making it a pure observer of the replicated allocation
// table.
//
//	wackmon -config wackamole.conf -bind 192.168.1.99:4803
//
// The monitor reuses the cluster's configuration file for the group name,
// timeouts and address plan; -bind overrides the daemon address. In real
// UDP deployments every daemon's `peers` list must include the monitor's
// address (broadcast is a static unicast fan-out).
//
// With -subscribe the monitor does not join the ring at all: it listens
// for the health telemetry frames each daemon publishes (`telemetry`
// directive) and renders a live dashboard — per-node health, the VIP
// ownership map with a multi-owner cross-check, and the full N×N
// suspicion matrix whose asymmetries make gray failures visible:
//
//	wackmon -subscribe 127.0.0.1:4810 -refresh 1s
//
// Note that a monitor daemon joining or leaving triggers a daemon-level
// reconfiguration (§4.1), which pauses — but does not move — the address
// allocation for one discovery round.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"wackamole"
	"wackamole/internal/config"
	"wackamole/internal/core"
	"wackamole/internal/env"
	"wackamole/internal/env/realtime"
	"wackamole/internal/ipmgr"
	"wackamole/internal/metrics"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	// Buffer stdout so per-poll output is cheap when piped; run flushes on
	// every exit path, so a SIGINT cannot lose the final table.
	out := bufio.NewWriter(os.Stdout)
	code := run(os.Args[1:], sig, out)
	_ = out.Flush()
	os.Exit(code)
}

func run(args []string, stop <-chan os.Signal, out io.Writer) int {
	fs := flag.NewFlagSet("wackmon", flag.ContinueOnError)
	cfgPath := fs.String("config", "wackamole.conf", "cluster configuration file")
	bind := fs.String("bind", "", "monitor's own address (overrides the config's bind)")
	interval := fs.Duration("interval", time.Second, "status polling interval")
	subscribe := fs.String("subscribe", "", "dashboard mode: listen for telemetry frames on this UDP address instead of joining the ring")
	refresh := fs.Duration("refresh", time.Second, "dashboard redraw interval (with -subscribe)")
	stale := fs.Duration("stale", 3*time.Second, "mark a node stale after this long without a frame (with -subscribe)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *subscribe != "" {
		return runSubscribe(*subscribe, *refresh, *stale, stop, out)
	}
	cfg, err := config.ParseFile(*cfgPath)
	if err != nil {
		fmt.Fprintf(out, "wackmon: %v\n", err)
		return 1
	}
	if *bind != "" {
		cfg.Bind = *bind
		cfg.Peers = append(cfg.Peers, *bind)
	}

	loop := realtime.NewLoop()
	clock := realtime.NewClock(loop)
	conn, err := realtime.Listen(loop, cfg.Bind, cfg.Peers)
	if err != nil {
		fmt.Fprintf(out, "wackmon: %v\n", err)
		loop.Close()
		return 1
	}

	nodeCfg := cfg.NodeConfig()
	// Observer posture: never mature, never own, never rebalance.
	nodeCfg.Engine.StartMature = false
	nodeCfg.Engine.MatureTimeout = 10 * 365 * 24 * time.Hour
	nodeCfg.Engine.DisableBalance = true

	// The observer keeps its own latency registry: token rotation and
	// delivery as seen from the monitor's seat on the ring.
	registry := metrics.New()
	node, err := wackamole.NewNode(
		env.Env{Clock: clock, Conn: conn, Log: env.NopLogger{}, Metrics: registry},
		nodeCfg, &ipmgr.FakeBackend{}, nil)
	if err != nil {
		fmt.Fprintf(out, "wackmon: %v\n", err)
		loop.Close()
		return 1
	}
	startErr := make(chan error, 1)
	loop.Post(func() { startErr <- node.Start() })
	if err := <-startErr; err != nil {
		fmt.Fprintf(out, "wackmon: %v\n", err)
		loop.Close()
		return 1
	}
	fmt.Fprintf(out, "wackmon: observing as %s (group %q, %d peers)\n",
		cfg.Bind, nodeCfg.Group, len(cfg.Peers))

	ticker := time.NewTicker(*interval)
	defer ticker.Stop()
	var last core.Status
	for {
		select {
		case <-ticker.C:
			status := make(chan core.Status, 1)
			loop.Post(func() { status <- node.Status() })
			select {
			case st := <-status:
				printDiff(out, &last, st)
			case <-time.After(2 * time.Second):
				fmt.Fprintln(out, "wackmon: node loop unresponsive")
			}
			flush(out)
		case <-stop:
			fmt.Fprintln(out, "wackmon: leaving")
			printFinal(out, last)
			printLatency(out, registry)
			flush(out)
			stopped := make(chan struct{})
			loop.Post(func() {
				node.Stop()
				close(stopped)
			})
			<-stopped
			loop.Close()
			flush(out)
			return 0
		}
	}
}

// flush pushes buffered output through, so a piped terminal sees every poll
// promptly and nothing is lost when a signal ends the run. Production hands
// run a *bufio.Writer; test writers without Flush are left alone.
func flush(out io.Writer) {
	if f, ok := out.(interface{ Flush() error }); ok {
		_ = f.Flush()
	}
}

// printFinal renders the complete last-observed allocation table (printDiff
// only reports changes), so the terminal ends with the full cluster state.
func printFinal(out io.Writer, st core.Status) {
	if st.ViewID == "" && len(st.Table) == 0 {
		return
	}
	fmt.Fprintf(out, "wackmon: final view %s (%d members)\n", st.ViewID, len(st.Members))
	var names []string
	for g := range st.Table {
		names = append(names, g)
	}
	sort.Strings(names)
	for _, g := range names {
		owner := string(st.Table[g])
		if owner == "" {
			owner = "(uncovered)"
		}
		fmt.Fprintf(out, "wackmon:   %-12s -> %s\n", g, owner)
	}
}

// printLatency summarizes the monitor's latency histograms: token rotation
// and agreed-delivery time as observed from its seat on the ring.
func printLatency(out io.Writer, reg *metrics.Registry) {
	if !reg.Enabled() {
		return
	}
	snap := reg.Snapshot()
	rot := snap.MergedHistogram("gcs_token_rotation_seconds")
	del := snap.MergedHistogram("gcs_delivery_seconds")
	if rot.Count() == 0 && del.Count() == 0 {
		return
	}
	fmt.Fprintf(out, "wackmon: latency rotation p50=%s p99=%s (%d obs) delivery p99=%s (%d obs)\n",
		rot.QuantileDuration(0.50), rot.QuantileDuration(0.99), rot.Count(),
		del.QuantileDuration(0.99), del.Count())
}

// printDiff reports view and allocation changes since the previous poll.
func printDiff(out io.Writer, last *core.Status, st core.Status) {
	now := time.Now().Format("15:04:05.000")
	if st.ViewID != last.ViewID {
		members := make([]string, 0, len(st.Members))
		for _, m := range st.Members {
			members = append(members, string(m))
		}
		fmt.Fprintf(out, "%s view %s: %d members [%s]\n", now, st.ViewID, len(st.Members), strings.Join(members, " "))
	}
	var names []string
	for g := range st.Table {
		names = append(names, g)
	}
	sort.Strings(names)
	for _, g := range names {
		if last.Table == nil || last.Table[g] != st.Table[g] {
			owner := string(st.Table[g])
			if owner == "" {
				owner = "(uncovered)"
			}
			fmt.Fprintf(out, "%s   %-12s -> %s\n", now, g, owner)
		}
	}
	*last = st
}
