// Package env defines the abstract runtime that every protocol in this
// repository is written against: a clock, a packet endpoint with unicast and
// LAN-broadcast primitives, and a logger.
//
// Two implementations exist. The simulated one (package netsim) runs under
// virtual time on a single goroutine; the real-time one (package
// env/realtime) runs over UDP sockets and the wall clock, serializing all
// callbacks onto one loop per node.
//
// Concurrency contract: for a given Env, all callbacks — packet handlers and
// timer functions — are invoked serially, never concurrently. Protocol code
// therefore needs no internal locking as long as it touches its state only
// from those callbacks.
package env

import (
	"fmt"
	"io"
	"net/netip"
	"sync"
	"time"

	"wackamole/internal/metrics"
	"wackamole/internal/obs"
)

// Addr identifies a protocol endpoint: a comparable ip:port value that
// endpoints hand through without formatting or parsing. The zero value is
// not a valid address.
type Addr = netip.AddrPort

// Timer is a handle to a callback its owner can arm any number of times.
type Timer interface {
	// Stop disarms the timer, reporting whether it prevented the callback
	// from running.
	Stop() bool
	// Reset arms the timer to run its callback once, d from now, whether it
	// was unarmed, armed (the earlier deadline is dropped) or has fired.
	Reset(d time.Duration)
}

// Clock supplies time to protocol code.
type Clock interface {
	// Now returns the current instant (virtual or wall time).
	Now() time.Time
	// NewTimer returns an unarmed timer that runs f, serialized with all
	// other callbacks of the same Env, each time a Reset deadline passes.
	// Code that fires repeatedly owns one timer and re-arms it.
	NewTimer(f func()) Timer
	// AfterFunc is NewTimer(f) followed by Reset(d), for one-shot callers.
	AfterFunc(d time.Duration, f func()) Timer
}

// Handler consumes an inbound datagram. A handler must not retain payload
// past its return: the buffer is recycled into the next datagram as soon as
// the handler is done with it.
type Handler func(from Addr, payload []byte)

// PacketConn is an unreliable datagram endpoint on a LAN. SendTo and Broadcast
// do not retain payload past their return — the send-side mirror of the
// Handler rule — so a sender may encode every datagram into one scratch
// buffer and overwrite it as soon as the call comes back.
type PacketConn interface {
	// LocalAddr returns this endpoint's stationary address.
	LocalAddr() Addr
	// SendTo transmits payload to a single peer. Delivery is best-effort.
	SendTo(to Addr, payload []byte) error
	// Broadcast transmits payload to every endpoint on the local broadcast
	// domain, including this one. Delivery is best-effort.
	Broadcast(payload []byte) error
	// SetHandler installs the inbound datagram callback. It must be called
	// before any datagram can be delivered and at most once.
	SetHandler(h Handler)
	// Close releases the endpoint. It may be called from any goroutine. A
	// delivery that begins after Close returns never reaches the handler;
	// Close does not wait for one already under way, which may still run the
	// handler.
	Close() error
}

// Logger receives diagnostic output from protocol code.
type Logger interface {
	Logf(format string, args ...any)
}

// Env bundles the runtime facilities handed to a protocol instance and the
// instruments it reports to. Everything built on an Env resolves Tracer,
// Metrics and HLC here, at construction; each is nil-safe, and nil (the zero
// value) leaves that instrument off at no cost.
type Env struct {
	Clock   Clock
	Conn    PacketConn
	Log     Logger
	Tracer  *obs.Tracer
	Metrics *metrics.Registry
	// HLC stamps outbound wire messages and traced events and merges inbound
	// stamps, making traces from different nodes causally mergeable.
	HLC *obs.HLCClock
}

// NopLogger discards all output.
type NopLogger struct{}

// Logf implements Logger by discarding its arguments.
func (NopLogger) Logf(string, ...any) {}

var _ Logger = NopLogger{}

// PrefixLogger writes one line per Logf call to W, prefixed with the
// clock-relative elapsed time and a fixed tag. It is safe for concurrent use.
type PrefixLogger struct {
	mu     sync.Mutex
	w      io.Writer
	clock  Clock
	base   time.Time
	prefix string
}

// NewPrefixLogger returns a logger stamping lines with time elapsed on clock
// since its creation.
func NewPrefixLogger(w io.Writer, clock Clock, prefix string) *PrefixLogger {
	return &PrefixLogger{w: w, clock: clock, base: clock.Now(), prefix: prefix}
}

// Logf implements Logger.
func (l *PrefixLogger) Logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	elapsed := l.clock.Now().Sub(l.base)
	fmt.Fprintf(l.w, "%12s %-14s ", elapsed.Round(time.Microsecond), l.prefix)
	fmt.Fprintf(l.w, format, args...)
	fmt.Fprintln(l.w)
}

var _ Logger = (*PrefixLogger)(nil)
