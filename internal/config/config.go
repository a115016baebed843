// Package config parses the wackamole.conf-style configuration file used by
// cmd/wackamole, covering the knobs the paper's implementation exposes:
// the group-communication timeouts (Table 1), the virtual address groups
// (single addresses for web clusters, indivisible multi-address sets for
// virtual routers, §5.2), per-server preferences (§3.4), and the
// administrative control channel (§4.2).
//
// Format: one directive per line, '#' comments, whitespace-separated
// fields.
//
//	bind 192.168.1.10:4803
//	peers 192.168.1.10:4803 192.168.1.11:4803 192.168.1.12:4803
//	group wackamole
//	control 127.0.0.1:4804
//	metrics 127.0.0.1:4805
//	timeouts tuned            # or: default
//	detector phi              # failure detector: fixed (default) or phi-accrual
//	fault_detect 1s           # individual overrides
//	heartbeat 400ms
//	discovery 1.4s
//	balance 30s
//	mature 5s
//	placement minimal         # VIP placement policy: least-loaded (default) or minimal
//	prefer web1 web2
//	device eth0
//	dry_run true
//	invariants true           # arm the always-on protocol-invariant monitors
//	pprof true                # expose /debug/pprof + /debug/vars on the metrics listener
//	flight_dir /var/lib/wackamole/flight   # arm the black-box flight recorder
//	flight_threshold 2s       # auto-dump when a failover runs longer than this
//	flight_profile true       # include a heap profile in each bundle
//	vip web1 10.0.0.100
//	vip vrouter 198.51.100.1 10.1.0.1
package config

import (
	"bufio"
	"fmt"
	"io"
	"net/netip"
	"os"
	"strconv"
	"strings"
	"time"

	"wackamole"
	"wackamole/internal/core"
	"wackamole/internal/gcs"
	"wackamole/internal/placement"
)

// File is a parsed configuration.
type File struct {
	// Bind is this daemon's stationary address ("ip:port").
	Bind string
	// Peers are all daemons' stationary addresses, including this one
	// (real UDP mode broadcasts by unicasting to every peer).
	Peers []string
	// Group is the process-group name.
	Group string
	// Control is the administrative channel's TCP listen address.
	Control string
	// Metrics is the observability HTTP listen address (/metrics and
	// /debug/events); empty disables the endpoint.
	Metrics string
	// Device is the interface for the exec address backend.
	Device string
	// DryRun suppresses actual `ip addr` execution.
	DryRun bool
	// Invariants arms the always-on protocol-invariant monitors on this
	// daemon: the model checker's oracles watch the live view, delivery and
	// ownership streams, with violations counted on /metrics
	// (invariant_violations_total) and visible on /debug/events.
	Invariants bool
	// Pprof enables the /debug/pprof/* and /debug/vars endpoints on the
	// metrics listener. Off by default: profiles expose process memory and
	// perturb protocol timing, so only enable on an access-controlled
	// address.
	Pprof bool
	// FlightDir arms the flight recorder: post-mortem bundles (trace tail,
	// metrics, view history, effective config) are spilled here on SIGQUIT,
	// `wackactl dump`, an invariant trip, or a slow failover. Empty disables
	// the recorder.
	FlightDir string
	// FlightThreshold is the reconfiguration duration above which the
	// recorder dumps on its own; zero disables the automatic trigger.
	FlightThreshold time.Duration
	// FlightProfile includes a heap profile in every bundle.
	FlightProfile bool

	GCS            gcs.Config
	BalanceTimeout time.Duration
	MatureTimeout  time.Duration
	Prefer         []string
	Groups         []core.VIPGroup
	// RepresentativeDecisions enables the §4.2 allocation variant.
	RepresentativeDecisions bool
	// Placement names the VIP placement policy ("least-loaded" or
	// "minimal"); empty means least-loaded, the paper's balance rule.
	// Must be identical cluster-wide — the engines plan independently and
	// rely on computing identical plans.
	Placement string
}

// parse reads a configuration from r.
func parse(r io.Reader) (*File, error) {
	f := &File{DryRun: true}
	// The timeouts profile supplies only the Table-1 timeouts no explicit
	// line sets, so the result does not depend on line order.
	profile := gcs.DefaultConfig()
	set := map[string]bool{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	seenGroups := map[string]bool{}
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		fail := func(format string, args ...any) error {
			return fmt.Errorf("config: line %d: %s", lineNo, fmt.Sprintf(format, args...))
		}
		key, args := fields[0], fields[1:]
		need := func(n int) error {
			if len(args) != n {
				return fail("%s takes %d argument(s), got %d", key, n, len(args))
			}
			return nil
		}
		var err error
		switch key {
		case "bind":
			if err = need(1); err == nil {
				f.Bind = args[0]
			}
		case "peers":
			if len(args) == 0 {
				err = fail("peers needs at least one address")
			}
			f.Peers = append(f.Peers, args...)
		case "group":
			if err = need(1); err == nil {
				f.Group = args[0]
			}
		case "control":
			if err = need(1); err == nil {
				f.Control = args[0]
			}
		case "metrics":
			if err = need(1); err == nil {
				f.Metrics = args[0]
			}
		case "device":
			if err = need(1); err == nil {
				f.Device = args[0]
			}
		case "dry_run":
			if err = need(1); err == nil {
				f.DryRun, err = strconv.ParseBool(args[0])
				if err != nil {
					err = fail("dry_run: %v", err)
				}
			}
		case "invariants":
			if err = need(1); err == nil {
				f.Invariants, err = strconv.ParseBool(args[0])
				if err != nil {
					err = fail("invariants: %v", err)
				}
			}
		case "pprof":
			if err = need(1); err == nil {
				f.Pprof, err = strconv.ParseBool(args[0])
				if err != nil {
					err = fail("pprof: %v", err)
				}
			}
		case "flight_dir":
			if err = need(1); err == nil {
				f.FlightDir = args[0]
			}
		case "flight_threshold":
			err = parseDur(args, &f.FlightThreshold, fail)
		case "flight_profile":
			if err = need(1); err == nil {
				f.FlightProfile, err = strconv.ParseBool(args[0])
				if err != nil {
					err = fail("flight_profile: %v", err)
				}
			}
		case "timeouts":
			if err = need(1); err == nil {
				switch args[0] {
				case "default":
					profile = gcs.DefaultConfig()
				case "tuned":
					profile = gcs.TunedConfig()
				default:
					err = fail("timeouts must be default or tuned, got %q", args[0])
				}
			}
		case "detector":
			if err = need(1); err == nil {
				var det gcs.Detector
				if det, err = gcs.ParseDetector(args[0]); err != nil {
					err = fail("%v", err)
				} else {
					f.GCS.Detector = det
				}
			}
		case "fault_detect":
			err = parseDur(args, &f.GCS.FaultDetectTimeout, fail)
			set[key] = true
		case "heartbeat":
			err = parseDur(args, &f.GCS.HeartbeatInterval, fail)
			set[key] = true
		case "discovery":
			err = parseDur(args, &f.GCS.DiscoveryTimeout, fail)
			set[key] = true
		case "balance":
			err = parseDur(args, &f.BalanceTimeout, fail)
		case "placement":
			if err = need(1); err == nil {
				if _, perr := placement.New(args[0]); perr != nil {
					err = fail("%v", perr)
				} else {
					f.Placement = args[0]
				}
			}
		case "mature":
			err = parseDur(args, &f.MatureTimeout, fail)
		case "representative_decisions":
			if err = need(1); err == nil {
				f.RepresentativeDecisions, err = strconv.ParseBool(args[0])
				if err != nil {
					err = fail("representative_decisions: %v", err)
				}
			}
		case "prefer":
			if len(args) == 0 {
				err = fail("prefer needs at least one group name")
			}
			f.Prefer = append(f.Prefer, args...)
		case "vip":
			if len(args) < 2 {
				err = fail("vip needs a name and at least one address")
				break
			}
			name := args[0]
			if seenGroups[name] {
				err = fail("duplicate vip group %q", name)
				break
			}
			seenGroups[name] = true
			g := core.VIPGroup{Name: name}
			for _, a := range args[1:] {
				addr, perr := netip.ParseAddr(a)
				if perr != nil {
					err = fail("vip %s: %v", name, perr)
					break
				}
				g.Addrs = append(g.Addrs, addr)
			}
			if err == nil {
				f.Groups = append(f.Groups, g)
			}
		default:
			err = fail("unknown directive %q", key)
		}
		if err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	if !set["fault_detect"] {
		f.GCS.FaultDetectTimeout = profile.FaultDetectTimeout
	}
	if !set["heartbeat"] {
		f.GCS.HeartbeatInterval = profile.HeartbeatInterval
	}
	if !set["discovery"] {
		f.GCS.DiscoveryTimeout = profile.DiscoveryTimeout
	}
	return f, f.validate()
}

func parseDur(args []string, dst *time.Duration, fail func(string, ...any) error) error {
	if len(args) != 1 {
		return fail("expected one duration")
	}
	d, err := time.ParseDuration(args[0])
	if err != nil {
		return fail("%v", err)
	}
	*dst = d
	return nil
}

func (f *File) validate() error {
	if f.Bind == "" {
		return fmt.Errorf("config: missing bind directive")
	}
	if len(f.Peers) == 0 {
		return fmt.Errorf("config: missing peers directive")
	}
	if len(f.Groups) == 0 {
		return fmt.Errorf("config: no vip groups configured")
	}
	selfListed := false
	for _, p := range f.Peers {
		if p == f.Bind {
			selfListed = true
		}
	}
	if !selfListed {
		return fmt.Errorf("config: peers must include the bind address %q", f.Bind)
	}
	if err := f.GCS.Validate(); err != nil {
		return err
	}
	return f.NodeConfig().Engine.Validate()
}

// ParseFile reads and parses path.
func ParseFile(path string) (*File, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	defer func() {
		if cerr := fh.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	return parse(fh)
}

// NodeConfig converts the file into a wackamole.Config. The placement
// policy instance is freshly constructed on every call (policies carry
// per-engine scratch state); the name was validated at parse time.
func (f *File) NodeConfig() wackamole.Config {
	placer, err := placement.New(f.Placement)
	if err != nil {
		placer = placement.NewLeastLoaded() // unreachable: parse validated the name
	}
	return wackamole.Config{
		Group: f.Group,
		GCS:   f.GCS,
		Engine: core.Config{
			Groups:                  f.Groups,
			Prefer:                  f.Prefer,
			BalanceTimeout:          f.BalanceTimeout,
			MatureTimeout:           f.MatureTimeout,
			RepresentativeDecisions: f.RepresentativeDecisions,
			Placer:                  placer,
		},
	}
}
