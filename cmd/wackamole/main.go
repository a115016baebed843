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
	d, err := build(*cfgPath, *verbose, notices)
	if err == nil {
		err = d.start(notices)
	}
	if err != nil {
		fmt.Fprintf(notices, "wackamole: %v\n", err)
		return 1
	}

	for s := range stop {
		if s == syscall.SIGQUIT && d.recorder != nil {
			if dir, derr := d.recorder.Dump("sigquit"); derr == nil {
				fmt.Fprintf(notices, "wackamole: SIGQUIT flight bundle: %s\n", dir)
			}
			continue
		}
		break
	}
	fmt.Fprintln(notices, "wackamole: shutting down")
	d.stop(notices)
	return 0
}

// daemon is one running wackamole: the pieces build wires from a
// configuration file, start brings up and stop tears down.
type daemon struct {
	cfg      *config.File
	loop     *realtime.Loop
	conn     *realtime.Conn
	node     *wackamole.Node
	tracer   *obs.Tracer         // nil unless metrics or flight_dir is set
	registry *metrics.Registry   // likewise
	recorder *obs.FlightRecorder // nil unless flight_dir is set
	obsSrv   *obs.Server         // nil unless metrics is set
	ctlSrv   *ctl.Server         // nil unless control is set
}

// build wires the daemon that configPath describes, up to but not
// including node.Start: the socket is bound and every instrument and
// monitor is attached, but the protocol has not begun.
func build(configPath string, verbose bool, notices io.Writer) (*daemon, error) {
	cfg, err := config.ParseFile(configPath)
	if err != nil {
		return nil, err
	}

	loop := realtime.NewLoop()
	clock := realtime.NewClock(loop)
	var log env.Logger = env.NopLogger{}
	if verbose {
		log = env.NewPrefixLogger(notices, clock, cfg.Bind)
	}
	conn, err := realtime.Listen(loop, cfg.Bind, cfg.Peers)
	if err != nil {
		loop.Close()
		return nil, err
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
	d := &daemon{cfg: cfg, loop: loop, conn: conn, tracer: e.Tracer, registry: e.Metrics}

	device := cfg.Device
	if device == "" {
		device = "eth0"
	}
	backend := &ipmgr.LoggingBackend{
		Inner: &ipmgr.ExecBackend{Device: device, DryRun: cfg.DryRun},
		Log:   env.NewPrefixLogger(notices, clock, "ipmgr"),
	}
	d.node, err = wackamole.NewNode(e, cfg.NodeConfig(), backend, &announceLogger{log: log})
	if err != nil {
		_ = conn.Close()
		loop.Close()
		return nil, err
	}
	if d.registry != nil {
		// The live health plane rides on the same instruments: the
		// observe-only phi-accrual monitor shadows the fixed T/H detectors
		// (health_phi, health_interarrival_ns, phi-suspect trace events)
		// without influencing them. The daemon evaluates it on its own scan
		// tick.
		d.node.SetHealth(health.NewMonitor(health.Options{
			Node:    cfg.Bind,
			Metrics: d.registry,
			Tracer:  d.tracer,
		}))
	}
	registerActivityCounters(d.registry, d.node)
	if cfg.FlightDir != "" {
		// The black box: a bounded in-memory record of recent protocol life,
		// spilled as an atomic bundle on SIGQUIT, `wackactl dump`, an
		// invariant trip, or a failover slower than flight_threshold.
		raw, rerr := os.ReadFile(configPath)
		if rerr != nil {
			raw = []byte(fmt.Sprintf("# unreadable at dump time: %v\n", rerr))
		}
		recorder := obs.NewFlightRecorder(obs.FlightConfig{
			Dir:                   cfg.FlightDir,
			Node:                  cfg.Bind,
			Tracer:                d.tracer,
			Registry:              d.registry,
			Config:                string(raw),
			InterruptionThreshold: cfg.FlightThreshold,
			Profile:               cfg.FlightProfile,
			Log: func(format string, args ...any) {
				fmt.Fprintf(notices, "wackamole: "+format+"\n", args...)
			},
		})
		d.node.Daemon().SetMembershipHandler(func(ring gcs.RingID, members []gcs.DaemonID) {
			ms := make([]string, len(members))
			for i, m := range members {
				ms[i] = string(m)
			}
			recorder.RecordView(ring.String(), ms)
		})
		d.recorder = recorder
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
			Metrics: d.registry,
			Tracer:  d.tracer,
			Name:    "wackamole-" + cfg.Bind,
			// Per-view relocation ceiling: a single-node monitor sees only
			// its own acquisitions, so this is the accounting backstop, not
			// a policy assertion.
			ChurnBound: len(cfg.Groups),
			OnViolation: func(v *invariant.Violation) {
				fmt.Fprintf(notices, "wackamole: invariant violation: %v\n", v)
				// Off this goroutine: the violation hook runs on the
				// protocol path and a dump is file I/O.
				go d.recorder.Dump("invariant:" + v.Oracle)
			},
		})
		mon.Attach(0, d.node)
	}
	return d, nil
}

// start runs node.Start on the daemon's loop and then opens the metrics
// and control listeners the configuration names. On error everything build
// and start brought up is torn down again.
func (d *daemon) start(notices io.Writer) error {
	cfg := d.cfg
	startErr := make(chan error, 1)
	d.loop.Post(func() { startErr <- d.node.Start() })
	if err := <-startErr; err != nil {
		_ = d.conn.Close()
		d.loop.Close()
		return err
	}
	fmt.Fprintf(notices, "wackamole: daemon %s up (%d peers, %d vip groups, dry_run=%v)\n",
		cfg.Bind, len(cfg.Peers), len(cfg.Groups), cfg.DryRun)

	var err error
	if cfg.Metrics != "" {
		// Every instrument is an atomic, so the handler snapshots the registry
		// directly without posting to the loop.
		h := obs.NewHandler(d.tracer, d.registry)
		if cfg.Pprof {
			h.EnableProfiling()
		}
		if d.obsSrv, err = obs.ServeHandler(cfg.Metrics, h); err != nil {
			d.stop(io.Discard)
			return err
		}
		fmt.Fprintf(notices, "wackamole: metrics endpoint on http://%s/metrics\n", d.obsSrv.Addr())
		if cfg.Pprof {
			fmt.Fprintf(notices, "wackamole: profiling enabled on http://%s/debug/pprof/\n", d.obsSrv.Addr())
		}
	}
	if cfg.Control != "" {
		if d.ctlSrv, err = ctl.Serve(cfg.Control, d.loop, d.node); err != nil {
			d.stop(io.Discard)
			return err
		}
		d.ctlSrv.SetRecorder(d.recorder)
		fmt.Fprintf(notices, "wackamole: control channel on %s\n", d.ctlSrv.Addr())
	}
	return nil
}

// stop closes the listeners, then stops the node on its loop (it leaves the
// group and closes the socket) and closes the loop.
func (d *daemon) stop(notices io.Writer) {
	if d.obsSrv != nil {
		if err := d.obsSrv.Close(); err != nil {
			fmt.Fprintf(notices, "wackamole: metrics close: %v\n", err)
		}
	}
	if d.ctlSrv != nil {
		if err := d.ctlSrv.Close(); err != nil {
			fmt.Fprintf(notices, "wackamole: control close: %v\n", err)
		}
	}
	stopped := make(chan struct{})
	d.loop.Post(func() {
		d.node.Stop()
		close(stopped)
	})
	<-stopped
	d.loop.Close()
}
