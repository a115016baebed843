// Package watchdog implements the run-time checks the paper sketches in
// §4.2: Wackamole itself does not detect failures of the applications
// relying on its management (an HTTP server can die while Spread and
// Wackamole stay healthy), "but a possible solution is to perform run-time
// checks on the availability of the NIC or of the specific applications
// that use Wackamole, and trigger the virtual IP migration when a failure
// is detected."
//
// A Watchdog runs a health check on an interval; after a threshold of
// consecutive failures it fires its action — typically Node.LeaveService,
// which migrates the node's virtual addresses to healthy peers within
// milliseconds (the graceful-departure path), while the local daemon keeps
// running so the node can rejoin once repaired.
package watchdog

import (
	"fmt"
	"net/netip"
	"time"

	"wackamole/internal/env"
	"wackamole/internal/metrics"
	"wackamole/internal/netsim"
	"wackamole/internal/obs"
)

// Defaults.
const (
	DefaultInterval  = time.Second
	DefaultThreshold = 3
)

// Config parameterizes a Watchdog.
type Config struct {
	// Check reports whether the watched resource is currently healthy. It
	// runs on the node's callback loop and must not block.
	Check func() bool
	// Action runs once after Threshold consecutive failed checks.
	Action func()
	// Interval between checks; zero means 1s.
	Interval time.Duration
	// Threshold of consecutive failures; zero means 3.
	Threshold int
	// Tracer records check misses and firings (nil disables tracing).
	Tracer *obs.Tracer
	// Metrics, when set, records each health check's duration in the
	// watchdog_check_seconds histogram.
	Metrics *metrics.Registry
	// Node tags traced events and metrics with the watched node's identity.
	Node string
}

func (c Config) interval() time.Duration {
	if c.Interval <= 0 {
		return DefaultInterval
	}
	return c.Interval
}

func (c Config) threshold() int {
	if c.Threshold <= 0 {
		return DefaultThreshold
	}
	return c.Threshold
}

// Watchdog periodically checks a resource and fires an action on sustained
// failure.
type Watchdog struct {
	clock  env.Clock
	cfg    Config
	mCheck *metrics.Histogram
	misses int
	fired  bool
	timer  env.Timer
	armed  bool
}

// New builds a watchdog on clock. Call Start to begin checking.
func New(clock env.Clock, cfg Config) (*Watchdog, error) {
	if cfg.Check == nil || cfg.Action == nil {
		return nil, fmt.Errorf("watchdog: Check and Action are required")
	}
	w := &Watchdog{clock: clock, cfg: cfg}
	w.mCheck = cfg.Metrics.Histogram("watchdog_check_seconds",
		"wall time spent in one health check invocation", metrics.L("node", cfg.Node))
	w.timer = clock.NewTimer(w.tick)
	return w, nil
}

// Start begins the check loop.
func (w *Watchdog) Start() {
	if w.armed {
		return
	}
	w.armed = true
	w.timer.Reset(w.cfg.interval())
}

// tick runs one check and re-arms the watchdog's timer unless it fired.
func (w *Watchdog) tick() {
	if !w.armed || w.fired {
		return
	}
	checkStart := w.clock.Now()
	healthy := w.cfg.Check()
	w.mCheck.ObserveDuration(w.clock.Now().Sub(checkStart))
	if healthy {
		w.misses = 0
	} else {
		w.misses++
		if w.cfg.Tracer.Enabled() {
			w.cfg.Tracer.Emit(obs.Event{Source: obs.SourceWatchdog, Kind: obs.KindWatchdogMiss,
				Node: w.cfg.Node, Detail: fmt.Sprintf("miss %d/%d", w.misses, w.cfg.threshold())})
		}
		if w.misses >= w.cfg.threshold() {
			w.fired = true
			w.cfg.Tracer.Emit(obs.Event{Source: obs.SourceWatchdog, Kind: obs.KindWatchdogFire, Node: w.cfg.Node})
			w.cfg.Action()
			return
		}
	}
	w.timer.Reset(w.cfg.interval())
}

// Stop halts checking without firing.
func (w *Watchdog) Stop() {
	w.armed = false
	w.timer.Stop()
}

// Fired reports whether the action has run.
func (w *Watchdog) Fired() bool { return w.fired }

// Reset re-arms a fired watchdog (after the watched service was repaired
// and the node rejoined).
func (w *Watchdog) Reset() {
	w.misses = 0
	if w.fired {
		w.fired = false
		if w.armed {
			w.armed = false
			w.Start()
		}
	}
}

// NICCheck returns a Check reporting whether nic is up — the paper's
// "availability of the NIC" variant.
func NICCheck(nic *netsim.NIC) func() bool {
	return func() bool { return nic.Up() && nic.Host().Alive() }
}

// UDPServiceCheck returns a Check probing a local UDP service: it sends a
// datagram to (addr, port) on the host's loopback path and reports whether
// a response arrived by the time of the next check (asynchronous, like the
// Fake project's probing). The first call primes the probe and reports the
// previous outcome.
func UDPServiceCheck(host *netsim.Host, target netip.AddrPort, localPort uint16) (func() bool, error) {
	answered := true // optimistic until the first probe round-trips
	gotReply := false
	_, err := host.BindUDP(netip.Addr{}, localPort, func(_, _ netip.AddrPort, _ []byte) {
		gotReply = true
	})
	if err != nil {
		return nil, fmt.Errorf("watchdog: %w", err)
	}
	return func() bool {
		answered = gotReply
		gotReply = false
		src := netip.AddrPortFrom(netip.Addr{}, localPort)
		if err := host.SendUDP(src, target, []byte("health")); err != nil {
			// The interface itself is down: definitely unhealthy.
			answered = false
		}
		return answered
	}, nil
}
