// Package probe implements the measurement workload of the paper's §6: a
// trivial UDP server that answers every request with its hostname, and a
// client that polls one virtual address at a fixed interval (10ms in the
// paper), recording which server answers and how long any interruption in
// service lasts. The availability-interruption metric — the time between
// the last response from the failed server and the first response from the
// server that took over — is exactly what Figure 5 plots.
package probe

import (
	"fmt"
	"net/netip"
	"time"

	"wackamole/internal/env"
	"wackamole/internal/netsim"
)

const (
	// interval is the paper's probe period: "we used a 10ms interval
	// between requests", their practical minimum.
	interval = 10 * time.Millisecond
	// gapThreshold: consecutive responses farther apart than this are
	// recorded as a Gap.
	gapThreshold = 5 * interval
)

// NewServer binds a hostname-echo responder on (wildcard, port) of h, so it
// answers on whatever virtual addresses the host currently holds.
func NewServer(h *netsim.Host, port uint16) error {
	name := []byte(h.Name())
	_, err := h.BindUDP(netip.Addr{}, port, func(src, dst netip.AddrPort, _ []byte) {
		// Reply from the address the request was sent to (the virtual
		// address), so the client's view is of the service, not the host.
		if err := h.SendUDP(dst, src, name); err != nil {
			// The interface may be mid-failure; nothing to do.
			_ = err
		}
	})
	if err != nil {
		return fmt.Errorf("probe: server on %s: %w", h.Name(), err)
	}
	return nil
}

// Gap is one observed service interruption.
type Gap struct {
	// Start is the time of the last response before the interruption; End
	// is the first response after it.
	Start, End time.Time
	// From and To are the hostnames that answered before and after.
	From, To string
}

// Duration returns the length of the interruption.
func (g Gap) Duration() time.Duration { return g.End.Sub(g.Start) }

// Client polls a virtual address and records responses and gaps.
type Client struct {
	host   *netsim.Host
	target netip.AddrPort

	localPort uint16
	timer     env.Timer
	running   bool

	responses int
	havePrev  bool
	byServer  map[string]int
	lastAt    time.Time
	lastFrom  string
	maxGap    time.Duration
	gaps      []Gap
}

// ClientConfig parameterizes a Client.
type ClientConfig struct {
	// Target is the probed service address (vip:port).
	Target netip.AddrPort
	// LocalPort is the client's UDP port.
	LocalPort uint16
}

// NewClient builds a probing client on h. Call Start to begin probing.
func NewClient(h *netsim.Host, cfg ClientConfig) (*Client, error) {
	c := &Client{
		host:     h,
		target:   cfg.Target,
		byServer: map[string]int{},
	}
	if _, err := h.BindUDP(netip.Addr{}, cfg.LocalPort, func(_, _ netip.AddrPort, payload []byte) {
		c.onResponse(payload)
	}); err != nil {
		return nil, fmt.Errorf("probe: client on %s: %w", h.Name(), err)
	}
	c.localPort = cfg.LocalPort
	c.timer = h.NewTimer(c.tick)
	return c, nil
}

func (c *Client) onResponse(payload []byte) {
	// Responses come in long runs from one server: build the name only when
	// it changes.
	from := c.lastFrom
	if string(payload) != from {
		from = string(payload)
	}
	now := c.host.Now()
	if c.havePrev {
		gap := now.Sub(c.lastAt)
		if gap > c.maxGap {
			c.maxGap = gap
		}
		if gap > gapThreshold {
			c.gaps = append(c.gaps, Gap{Start: c.lastAt, End: now, From: c.lastFrom, To: from})
		}
	}
	c.responses++
	c.havePrev = true
	c.byServer[from]++
	c.lastAt = now
	c.lastFrom = from
}

// Start begins the probe loop.
func (c *Client) Start() {
	if c.running {
		return
	}
	c.running = true
	c.tick()
}

// query is the request body; the server ignores it.
var query = []byte("q")

// tick sends one probe and re-arms the client's timer for the next.
func (c *Client) tick() {
	src := netip.AddrPortFrom(netip.Addr{}, c.localPort)
	// Host-side failures (no route, interface down) occur during fault
	// experiments: a probe that was never sent is never answered, and the
	// gap it leaves is measured like any other.
	_ = c.host.SendUDP(src, c.target, query)
	c.timer.Reset(interval)
}

// Responses returns the total number of responses received.
func (c *Client) Responses() int { return c.responses }

// ByServer returns a copy of the per-hostname response counts.
func (c *Client) ByServer() map[string]int {
	out := make(map[string]int, len(c.byServer))
	for k, v := range c.byServer {
		out[k] = v
	}
	return out
}

// Gaps returns the recorded interruptions.
func (c *Client) Gaps() []Gap {
	out := make([]Gap, len(c.gaps))
	copy(out, c.gaps)
	return out
}

// MaxGap returns the largest inter-response spacing observed, which bounds
// the interruption even when it stayed below the gap threshold (the
// paper's ≈10ms graceful-leave measurements are of this kind).
func (c *Client) MaxGap() time.Duration { return c.maxGap }

// ResetStats clears counters, gaps and the max-gap tracker while keeping
// the probe loop and its last-response timestamp intact. Experiments call
// it after warm-up so measurements cover only the fault window.
func (c *Client) ResetStats() {
	c.responses = 0
	c.byServer = map[string]int{}
	c.maxGap = 0
	c.gaps = nil
}
