package obs

// hlc.go implements a hybrid logical clock (Kulkarni et al., "Logical
// Physical Clocks and Consistent Snapshots in Globally Distributed
// Databases"). The paper's simulator orders every event on one virtual
// clock, so a single trace ring is already causally consistent; a live
// cluster has N wall clocks and N rings, and nothing relates "node A
// detected the fault" to "node B installed the membership" across them. An
// HLC fixes that with two integers per event: a wall component that tracks
// physical time and a logical counter that breaks ties, merged on every
// message receive so that send happens-before receive regardless of clock
// skew. Timestamps stay close to wall time (within the real skew), so a
// merged cross-node timeline reads like a wall-clock timeline while
// ordering causally related events correctly — and the merge itself
// measures the skew, exported as the obs_hlc_skew_ns gauge.

import (
	"fmt"
	"sync"
	"time"

	"wackamole/internal/metrics"
)

// HLC is one hybrid-logical-clock timestamp. The zero value means
// "unstamped" (the emitting node had no HLC clock armed); comparisons and
// merges treat it as absent, not as the epoch.
type HLC struct {
	// Wall is the physical component: nanoseconds since the Unix epoch,
	// never behind the local wall clock that produced it.
	Wall int64
	// Logical breaks ties between timestamps sharing a Wall value.
	Logical uint32
}

// IsZero reports whether the timestamp is unset.
func (h HLC) IsZero() bool { return h.Wall == 0 && h.Logical == 0 }

// Time converts the wall component back to a time.Time (UTC).
func (h HLC) Time() time.Time { return time.Unix(0, h.Wall).UTC() }

// Compare orders two timestamps: -1, 0 or +1. Ties on (Wall, Logical) are
// possible across nodes; merge layers break them with the node identity.
func (h HLC) Compare(o HLC) int {
	switch {
	case h.Wall < o.Wall:
		return -1
	case h.Wall > o.Wall:
		return 1
	case h.Logical < o.Logical:
		return -1
	case h.Logical > o.Logical:
		return 1
	}
	return 0
}

// String renders the timestamp as wall-ns.logical.
func (h HLC) String() string { return fmt.Sprintf("%d.%d", h.Wall, h.Logical) }

// HLCClock issues and merges HLC timestamps for one node. A nil *HLCClock
// is a valid, disabled clock: Now returns the zero HLC and Observe is a
// no-op, so protocol code can call both unconditionally.
//
// It is safe for concurrent use: the daemon stamps outbound packets from
// its loop goroutine while the tracer stamps events from whichever
// goroutine emits them.
type HLCClock struct {
	mu        sync.Mutex
	now       func() time.Time
	node      string
	last      HLC
	skew      *metrics.Gauge
	maxSkewNS int64 // largest |remote wall - local wall| observed
}

// NewHLCClock returns a clock for node, reading physical time from now
// (nil means time.Now).
func NewHLCClock(now func() time.Time, node string) *HLCClock {
	if now == nil {
		now = time.Now
	}
	return &HLCClock{now: now, node: node}
}

// SetMetrics registers the obs_hlc_skew_ns gauge (signed: positive means
// the remote clock ran ahead of ours at the last merge) on r. Nil r
// disables the gauge.
func (c *HLCClock) SetMetrics(r *metrics.Registry) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.skew = r.Gauge("obs_hlc_skew_ns",
		"wall-clock skew observed at the last HLC merge: remote wall minus local wall, nanoseconds",
		metrics.L("node", c.node))
	c.mu.Unlock()
}

// Now issues the next local timestamp: wall time if it advanced past the
// last issued timestamp, otherwise the last wall value with the logical
// counter bumped. Successive calls are strictly increasing even if the
// physical clock stalls or steps backwards.
func (c *HLCClock) Now() HLC {
	if c == nil {
		return HLC{}
	}
	c.mu.Lock()
	pt := c.now().UnixNano()
	if pt > c.last.Wall {
		c.last = HLC{Wall: pt}
	} else {
		c.last.Logical++
	}
	out := c.last
	c.mu.Unlock()
	return out
}

// Observe merges a remote timestamp into the clock (the receive half of the
// HLC algorithm) and returns the merged local timestamp. The result is
// strictly after both the clock's previous timestamp and the remote one, so
// every event a node records after receiving a message sorts after the
// events the sender recorded before sending it. Zero remote timestamps
// (unstamped senders) only advance the local clock.
func (c *HLCClock) Observe(remote HLC) HLC {
	if c == nil {
		return HLC{}
	}
	if remote.IsZero() {
		return c.Now()
	}
	c.mu.Lock()
	pt := c.now().UnixNano()
	s := remote.Wall - pt
	c.skew.Set(s)
	if s < 0 {
		s = -s
	}
	if s > c.maxSkewNS {
		c.maxSkewNS = s
	}
	switch {
	case pt > c.last.Wall && pt > remote.Wall:
		c.last = HLC{Wall: pt}
	case c.last.Wall > remote.Wall:
		c.last.Logical++
	case remote.Wall > c.last.Wall:
		c.last = HLC{Wall: remote.Wall, Logical: remote.Logical + 1}
	default: // c.last.Wall == remote.Wall
		if remote.Logical > c.last.Logical {
			c.last.Logical = remote.Logical
		}
		c.last.Logical++
	}
	out := c.last
	c.mu.Unlock()
	return out
}

// latest returns the most recently issued timestamp without advancing the
// clock.
func (c *HLCClock) latest() HLC {
	if c == nil {
		return HLC{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last
}

// maxSkew reports the largest absolute wall-clock skew seen across all
// merges (0 until the first stamped remote message arrives).
func (c *HLCClock) maxSkew() time.Duration {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Duration(c.maxSkewNS)
}
