// Package gcs implements the group-communication substrate Wackamole
// depends on (the paper uses the Spread toolkit, §4.1): a daemon per host
// providing reliable, totally ordered ("Agreed") multicast over a token
// ring, a membership service with distributed heartbeats, fault-detection
// and discovery timeouts, Virtual Synchrony recovery across membership
// changes, and a client-facing process-group layer with lightweight group
// join/leave that does not trigger daemon-level reconfiguration.
//
// The three timeouts of the paper's Table 1 — fault-detection, distributed
// heartbeat, and discovery — are the dominant terms of fail-over latency and
// are exposed directly on Config; DefaultConfig and TunedConfig reproduce
// the two columns of that table.
package gcs

import (
	"fmt"
	"time"
)

// Detector selects the failure-detection regime for ring members.
type Detector uint8

const (
	// DetectorFixed is the paper's fixed fault-detection timeout (Table 1):
	// a member is declared dead after FaultDetectTimeout of silence.
	DetectorFixed Detector = iota
	// DetectorPhi drives detection from phi-accrual suspicion
	// (internal/health): a member is declared dead as soon as its phi
	// crosses health.Threshold. The fixed T timeout stays armed as
	// a fallback floor, so phi detection can fire earlier than T but never
	// later.
	DetectorPhi
)

// String names the detector for configs, flags and status output.
func (det Detector) String() string {
	switch det {
	case DetectorFixed:
		return "fixed"
	case DetectorPhi:
		return "phi"
	default:
		return fmt.Sprintf("detector(%d)", uint8(det))
	}
}

// ParseDetector resolves a detector name from configs and flags.
func ParseDetector(s string) (Detector, error) {
	switch s {
	case "fixed":
		return DetectorFixed, nil
	case "phi":
		return DetectorPhi, nil
	}
	return 0, fmt.Errorf("gcs: unknown detector %q (want fixed or phi)", s)
}

// Config holds the daemon's protocol timing parameters.
type Config struct {
	// FaultDetectTimeout is how long a ring member may stay silent before
	// the daemon assumes a fault and starts reconfiguration (Table 1:
	// "Fault-detection timeout").
	FaultDetectTimeout time.Duration
	// HeartbeatInterval is how often a daemon tells the others it is still
	// in operation (Table 1: "Distributed Heartbeat timeout").
	HeartbeatInterval time.Duration
	// DiscoveryTimeout is how long reconfiguration spends determining the
	// currently reachable set of daemons before forming a new membership
	// (Table 1: "Discovery timeout").
	DiscoveryTimeout time.Duration

	// Detector selects how ring-member faults are detected: DetectorFixed
	// (the zero value, the paper's T timeout) or DetectorPhi (adaptive
	// phi-accrual suspicion with the T timeout retained as a floor).
	Detector Detector
}

// DefaultConfig returns the "Default Spread" column of the paper's Table 1:
// timeouts designed to perform adequately on most networks.
func DefaultConfig() Config {
	return Config{
		FaultDetectTimeout: 5 * time.Second,
		HeartbeatInterval:  2 * time.Second,
		DiscoveryTimeout:   7 * time.Second,
	}
}

// TunedConfig returns the "Tuned Spread" column of the paper's Table 1:
// timeouts adjusted specifically for the Wackamole application on a
// dedicated LAN.
func TunedConfig() Config {
	return Config{
		FaultDetectTimeout: 1 * time.Second,
		HeartbeatInterval:  400 * time.Millisecond,
		DiscoveryTimeout:   1400 * time.Millisecond,
	}
}

// The remaining protocol timings are not knobs: they derive from the Table-1
// timeouts, here and nowhere else (the checker's settle bound reads the same
// accessors).
const (
	// tokenInterval paces token forwarding, bounding the ring's rotation rate.
	tokenInterval = time.Millisecond
	// window is the maximum number of messages a daemon may introduce per
	// token visit.
	window = 64
)

// FormTimeout bounds the wait for the coordinator's FORM message after
// discovery closes.
func (c Config) FormTimeout() time.Duration { return c.DiscoveryTimeout / 2 }

// RecoveryTimeout bounds the Virtual Synchrony flush after a new membership
// forms.
func (c Config) RecoveryTimeout() time.Duration { return c.DiscoveryTimeout / 2 }

// phiCheckInterval is how often the health scan re-evaluates per-peer
// suspicion.
func (c Config) phiCheckInterval() time.Duration { return c.HeartbeatInterval / 2 }

// TokenLossTimeout is how long the ring may show no token or data activity
// before the daemon reconfigures.
func (c Config) TokenLossTimeout() time.Duration { return c.FaultDetectTimeout }

// Validate reports configurations that cannot work.
func (c Config) Validate() error {
	if c.FaultDetectTimeout <= 0 || c.HeartbeatInterval <= 0 || c.DiscoveryTimeout <= 0 {
		return fmt.Errorf("gcs: all Table-1 timeouts must be positive (got fault=%v heartbeat=%v discovery=%v)",
			c.FaultDetectTimeout, c.HeartbeatInterval, c.DiscoveryTimeout)
	}
	if c.HeartbeatInterval >= c.FaultDetectTimeout {
		return fmt.Errorf("gcs: heartbeat interval %v must be below fault-detection timeout %v",
			c.HeartbeatInterval, c.FaultDetectTimeout)
	}
	if c.Detector > DetectorPhi {
		return fmt.Errorf("gcs: unknown detector %d", c.Detector)
	}
	return nil
}

// joinInterval is how often JOIN announcements repeat during discovery.
func (c Config) joinInterval() time.Duration {
	return c.DiscoveryTimeout / 5
}
