// Command wackamole runs one Wackamole daemon over real UDP sockets and the
// wall clock — the same protocol stack the simulator drives, deployed.
//
//	wackamole -config wackamole.conf
//
// The configuration names this daemon's bind address, all peers, the
// virtual address groups and the Table-1 timeouts (see internal/config for
// the format). Address acquisition shells out to `ip addr` via the exec
// backend; it is a dry run by default (commands are logged, not executed)
// so that experimentation cannot damage a machine's networking — set
// `dry_run false` in the configuration to go live.
//
// ARP-reply spoofing (§5.1) requires raw sockets, which this binary does
// not open; announcements are logged. On a real deployment, pair it with a
// gratuitous-ARP helper or run the simulator-backed examples instead.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/netip"
	"os"
	"os/signal"
	"syscall"

	"wackamole"
	"wackamole/internal/arp"
	"wackamole/internal/config"
	"wackamole/internal/ctl"
	"wackamole/internal/env"
	"wackamole/internal/env/realtime"
	"wackamole/internal/gcs"
	"wackamole/internal/health"
	"wackamole/internal/invariant"
	"wackamole/internal/ipmgr"
	"wackamole/internal/metrics"
	"wackamole/internal/obs"
)

func main() {
	sig := make(chan os.Signal, 1)
	// SIGQUIT is the classic black-box trigger: dump a flight bundle and
	// keep running (when flight_dir is set; otherwise it stops the daemon).
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGQUIT)
	os.Exit(run(os.Args[1:], sig, os.Stderr))
}

// announceLogger satisfies arp.Notifier by logging what a raw-socket
// implementation would transmit.
type announceLogger struct {
	log env.Logger
}

func (a *announceLogger) Announce(vip netip.Addr) {
	a.log.Logf("arp: would send gratuitous ARP reply for %v", vip)
}

func (a *announceLogger) Withdraw(netip.Addr) {}

var _ arp.Notifier = (*announceLogger)(nil)

// registerActivityCounters adds the protocol's own activity counts to r as
// views of the atomics behind Daemon.Stats, Engine.Stats and the tracer,
// which stay the single place those counts live (a nil r registers nothing).
func registerActivityCounters(r *metrics.Registry, node *wackamole.Node) {
	d, e, t := node.Daemon(), node.Engine(), node.Tracer()
	r.CounterFunc("gcs_memberships_installed", "daemon-level configuration installs",
		func() uint64 { return d.Stats().MembershipsInstalled })
	r.CounterFunc("gcs_reconfigurations", "entries into the discovery (gather) state",
		func() uint64 { return d.Stats().Reconfigurations })
	r.CounterFunc("gcs_tokens_forwarded", "token passes to the ring successor",
		func() uint64 { return d.Stats().TokensForwarded })
	r.CounterFunc("gcs_data_sent", "first transmissions of totally ordered messages",
		func() uint64 { return d.Stats().DataSent })
	r.CounterFunc("gcs_data_retransmitted", "retransmissions served for token requests",
		func() uint64 { return d.Stats().DataRetransmitted })
	r.CounterFunc("gcs_data_delivered", "messages handed to the group layer in order",
		func() uint64 { return d.Stats().DataDelivered })
	r.CounterFunc("gcs_recovery_flushes", "old-ring messages delivered during Virtual Synchrony recovery",
		func() uint64 { return d.Stats().RecoveryFlushes })
	r.CounterFunc("core_acquires", "virtual addresses acquired",
		func() uint64 { return e.Stats().Acquires })
	r.CounterFunc("core_releases", "virtual addresses released",
		func() uint64 { return e.Stats().Releases })
	r.CounterFunc("core_announces", "ownership-change notifications requested",
		func() uint64 { return e.Stats().Announces })
	r.CounterFunc("obs_events_emitted", "trace events emitted, including those since overwritten", t.Emitted)
	r.CounterFunc("obs_events_dropped", "trace events the ring has overwritten", t.Dropped)
}

// run starts the daemon and blocks until stop delivers; notices is the
// diagnostic stream (stderr in production, a buffer in tests).
func run(args []string, stop <-chan os.Signal, notices io.Writer) int {
	fs := flag.NewFlagSet("wackamole", flag.ContinueOnError)
	cfgPath := fs.String("config", "wackamole.conf", "configuration file")
	verbose := fs.Bool("v", false, "log protocol activity")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg, err := config.ParseFile(*cfgPath)
	if err != nil {
		fmt.Fprintf(notices, "wackamole: %v\n", err)
		return 1
	}

	loop := realtime.NewLoop()
	clock := realtime.NewClock(loop)
	var log env.Logger = env.NopLogger{}
	if *verbose {
		log = env.NewPrefixLogger(notices, clock, cfg.Bind)
	}
	conn, err := realtime.Listen(loop, cfg.Bind, cfg.Peers)
	if err != nil {
		fmt.Fprintf(notices, "wackamole: %v\n", err)
		loop.Close()
		return 1
	}
	e := env.Env{Clock: clock, Conn: conn, Log: log}
	if cfg.Metrics != "" || cfg.FlightDir != "" {
		// Wall-clock tracing feeds /debug/events; it rides on the Env so the
		// bootstrap discovery is captured too. The registry is the /metrics
		// surface. The HLC makes this daemon's trace causally mergeable with
		// its peers' (cmd/wacktrace): wire messages carry the clock, events
		// carry stamps, and observed clock skew lands on the obs_hlc_skew_ns
		// gauge. The ring keeps 4 096 events; an idle daemon emits none and
		// a fail-over costs it a few dozen, so that is hundreds of fail-overs.
		e.Tracer = obs.New(4096, nil)
		e.Metrics = metrics.New()
		e.HLC = obs.NewHLCClock(nil, cfg.Bind)
		e.HLC.SetMetrics(e.Metrics)
	}
	tracer, registry := e.Tracer, e.Metrics

	device := cfg.Device
	if device == "" {
		device = "eth0"
	}
	backend := &ipmgr.LoggingBackend{
		Inner: &ipmgr.ExecBackend{Device: device, DryRun: cfg.DryRun},
		Log:   env.NewPrefixLogger(notices, clock, "ipmgr"),
	}
	node, err := wackamole.NewNode(e, cfg.NodeConfig(), backend, &announceLogger{log: log})
	if err != nil {
		fmt.Fprintf(notices, "wackamole: %v\n", err)
		loop.Close()
		return 1
	}
	if registry != nil {
		// The live health plane rides on the same instruments: the
		// observe-only phi-accrual monitor shadows the fixed T/H detectors
		// (health_phi, health_interarrival_ns, phi-suspect trace events)
		// without influencing them. The daemon evaluates it on its own scan
		// tick.
		node.SetHealth(health.NewMonitor(health.Options{
			Node:    cfg.Bind,
			Metrics: registry,
			Tracer:  tracer,
		}))
	}
	registerActivityCounters(registry, node)
	var recorder *obs.FlightRecorder
	if cfg.FlightDir != "" {
		// The black box: a bounded in-memory record of recent protocol life,
		// spilled as an atomic bundle on SIGQUIT, `wackactl dump`, an
		// invariant trip, or a failover slower than flight_threshold.
		raw, rerr := os.ReadFile(*cfgPath)
		if rerr != nil {
			raw = []byte(fmt.Sprintf("# unreadable at dump time: %v\n", rerr))
		}
		recorder = obs.NewFlightRecorder(obs.FlightConfig{
			Dir:                   cfg.FlightDir,
			Node:                  cfg.Bind,
			Tracer:                tracer,
			Registry:              registry,
			Config:                string(raw),
			InterruptionThreshold: cfg.FlightThreshold,
			Profile:               cfg.FlightProfile,
			Log: func(format string, args ...any) {
				fmt.Fprintf(notices, "wackamole: "+format+"\n", args...)
			},
		})
		node.Daemon().SetMembershipHandler(func(ring gcs.RingID, members []gcs.DaemonID) {
			ms := make([]string, len(members))
			for i, m := range members {
				ms[i] = string(m)
			}
			recorder.RecordView(ring.String(), ms)
		})
		fmt.Fprintf(notices, "wackamole: flight recorder armed, bundles under %s\n", cfg.FlightDir)
	}
	if cfg.Invariants {
		// The always-on monitors watch this daemon's own hook streams. With
		// a metrics endpoint configured, violations surface as
		// invariant_violations_total on /metrics and an invariant-violation
		// event on /debug/events; either way the daemon logs them. With
		// flight_dir set, the bundle a violation dumps is the daemon's one
		// post-mortem record of it.
		mon := invariant.New(invariant.Config{
			Nodes:   1,
			Metrics: registry,
			Tracer:  tracer,
			Name:    "wackamole-" + cfg.Bind,
			// Per-view relocation ceiling: a single-node monitor sees only
			// its own acquisitions, so this is the accounting backstop, not
			// a policy assertion.
			ChurnBound: len(cfg.Groups),
			OnViolation: func(v *invariant.Violation) {
				fmt.Fprintf(notices, "wackamole: invariant violation: %v\n", v)
				// Off this goroutine: the violation hook runs on the
				// protocol path and a dump is file I/O.
				go recorder.Dump("invariant:" + v.Oracle)
			},
		})
		mon.Attach(0, node)
	}

	startErr := make(chan error, 1)
	loop.Post(func() { startErr <- node.Start() })
	if err := <-startErr; err != nil {
		fmt.Fprintf(notices, "wackamole: %v\n", err)
		loop.Close()
		return 1
	}
	fmt.Fprintf(notices, "wackamole: daemon %s up (%d peers, %d vip groups, dry_run=%v)\n",
		cfg.Bind, len(cfg.Peers), len(cfg.Groups), cfg.DryRun)

	var obsSrv *obs.Server
	if cfg.Metrics != "" {
		// Every instrument is an atomic, so the handler snapshots the registry
		// directly without posting to the loop.
		h := obs.NewHandler(tracer, registry)
		if cfg.Pprof {
			h.EnableProfiling()
		}
		obsSrv, err = obs.ServeHandler(cfg.Metrics, h)
		if err != nil {
			fmt.Fprintf(notices, "wackamole: %v\n", err)
			loop.Post(node.Stop)
			loop.Close()
			return 1
		}
		fmt.Fprintf(notices, "wackamole: metrics endpoint on http://%s/metrics\n", obsSrv.Addr())
		if cfg.Pprof {
			fmt.Fprintf(notices, "wackamole: profiling enabled on http://%s/debug/pprof/\n", obsSrv.Addr())
		}
	}

	var ctlSrv *ctl.Server
	if cfg.Control != "" {
		ctlSrv, err = ctl.Serve(cfg.Control, loop, node)
		if err != nil {
			fmt.Fprintf(notices, "wackamole: %v\n", err)
			loop.Post(node.Stop)
			loop.Close()
			return 1
		}
		ctlSrv.SetRecorder(recorder)
		fmt.Fprintf(notices, "wackamole: control channel on %s\n", ctlSrv.Addr())
	}

	for s := range stop {
		if s == syscall.SIGQUIT && recorder != nil {
			if dir, derr := recorder.Dump("sigquit"); derr == nil {
				fmt.Fprintf(notices, "wackamole: SIGQUIT flight bundle: %s\n", dir)
			}
			continue
		}
		break
	}
	fmt.Fprintln(notices, "wackamole: shutting down")
	if obsSrv != nil {
		if err := obsSrv.Close(); err != nil {
			fmt.Fprintf(notices, "wackamole: metrics close: %v\n", err)
		}
	}
	if ctlSrv != nil {
		if err := ctlSrv.Close(); err != nil {
			fmt.Fprintf(notices, "wackamole: control close: %v\n", err)
		}
	}
	stopped := make(chan struct{})
	loop.Post(func() {
		node.Stop()
		close(stopped)
	})
	<-stopped
	loop.Close()
	return 0
}
