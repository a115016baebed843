// Package obs is the structured event-tracing layer shared by every
// subsystem in this repository. The paper's headline metric — the
// availability interruption during fail-over (§5, Figure 5, Table 1) — is
// the sum of distinct protocol phases (fault detection, membership settle,
// state exchange, ARP take-over); package obs captures the typed events that
// mark those phase boundaries so a measured interruption can be decomposed
// into an explainable timeline rather than one opaque number.
//
// The Tracer is a bounded ring buffer of typed events that grows only as
// far as it is filled. It records protocol steps and faults, the kinds some
// reader keys on or a person reads in a timeline. Token passes and flow's
// per-request opens, resets and retransmissions are not traced; the metrics
// registry counts them (gcs_tokens_forwarded, flow_*_total). So a settled,
// idle cluster emits nothing, and the ring holds fail-overs rather than the
// traffic around them. A nil *Tracer is a valid, disabled tracer whose Emit
// is a zero-allocation no-op, so protocol code calls it unconditionally.
// Events carry the emitting node's source tag and a timestamp from a
// pluggable now-function, which is virtual time under the simulator and wall
// time in the real daemon.
package obs

import (
	"fmt"
	"slices"
	"sync"
	"time"
)

// Source identifies the subsystem that emitted an event.
type Source uint8

// Event sources.
const (
	// SourceGCS: the group-communication daemon (internal/gcs).
	SourceGCS Source = iota + 1
	// SourceCore: the state-synchronization engine (internal/core).
	SourceCore
	// SourceNet: the simulated network (internal/netsim).
	SourceNet
	// SourceInvariant: the always-on protocol-invariant monitor
	// (internal/invariant).
	SourceInvariant
	// SourceHealth: the live cluster health plane (internal/health).
	SourceHealth
)

// String names the source.
func (s Source) String() string {
	switch s {
	case SourceGCS:
		return "gcs"
	case SourceCore:
		return "core"
	case SourceNet:
		return "net"
	case SourceInvariant:
		return "invariant"
	case SourceHealth:
		return "health"
	default:
		return fmt.Sprintf("source(%d)", uint8(s))
	}
}

// Kind classifies an event within its source.
type Kind uint8

// Event kinds. Programs key on five: the fail-over breakdown on KindFault,
// KindGatherEnter, KindInstall and KindAcquire, the ownership timeline on
// KindAcquire and KindRelease, forensics and the flight recorder's gap
// trigger on KindGatherEnter. The rest give a timeline its detail for a
// person to read; TestEveryKindHasAReader keeps that split true.
const (
	// KindHeartbeatMiss: a ring member stayed silent beyond the
	// fault-detection timeout (gcs).
	KindHeartbeatMiss Kind = iota + 1
	// KindGatherEnter: the daemon entered discovery; Detail is the reason
	// ("fault:<id>", "token-loss", "join:<id>", ...).
	KindGatherEnter
	// KindFormRing: the coordinator formed a new ring.
	KindFormRing
	// KindRecoverEnter: the daemon began the Virtual Synchrony flush.
	KindRecoverEnter
	// KindInstall: the daemon installed a new membership.
	KindInstall

	// KindViewChange: the engine received a VIEW_CHANGE.
	KindViewChange
	// KindStateCast: the engine multicast its STATE_MSG.
	KindStateCast
	// KindStateRecv: the engine consumed a peer's STATE_MSG.
	KindStateRecv
	// KindRunEnter: GATHER completed; the engine entered RUN.
	KindRunEnter
	// KindAcquire: one virtual address was acquired (Addr, Group set).
	KindAcquire
	// KindRelease: one virtual address was released (Addr, Group set).
	KindRelease
	// KindAnnounce: an ownership-change notification was requested (§5.1).
	KindAnnounce
	// KindBalanceCast: the representative multicast a BALANCE/ALLOC message.
	KindBalanceCast
	// KindBalanceApply: a delivered BALANCE/ALLOC message was applied.
	KindBalanceApply

	// KindARPSpoof: an unsolicited ARP reply was injected into the network.
	KindARPSpoof
	// KindFrameDrop: a frame was lost to an explicit loss draw.
	KindFrameDrop
	// KindFault: an injected fault (interface down, host crash).
	KindFault
	// KindRestore: an injected repair (interface up, host restart).
	KindRestore

	// KindInvariantViolation: a protocol-invariant monitor detected a
	// violated oracle (Group carries the oracle name).
	KindInvariantViolation

	// KindPhiSuspect: the observe-only phi-accrual detector crossed its
	// suspicion threshold against a peer (Detail carries the peer).
	KindPhiSuspect
	// KindPhiClear: a signal from a suspected peer cleared its suspicion.
	KindPhiClear
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindHeartbeatMiss:
		return "heartbeat-miss"
	case KindGatherEnter:
		return "gather-enter"
	case KindFormRing:
		return "form-ring"
	case KindRecoverEnter:
		return "recover-enter"
	case KindInstall:
		return "install"
	case KindViewChange:
		return "view-change"
	case KindStateCast:
		return "state-cast"
	case KindStateRecv:
		return "state-recv"
	case KindRunEnter:
		return "run-enter"
	case KindAcquire:
		return "acquire"
	case KindRelease:
		return "release"
	case KindAnnounce:
		return "announce"
	case KindBalanceCast:
		return "balance-cast"
	case KindBalanceApply:
		return "balance-apply"
	case KindARPSpoof:
		return "arp-spoof"
	case KindFrameDrop:
		return "frame-drop"
	case KindFault:
		return "fault"
	case KindRestore:
		return "restore"
	case KindInvariantViolation:
		return "invariant-violation"
	case KindPhiSuspect:
		return "phi-suspect"
	case KindPhiClear:
		return "phi-clear"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one structured trace event.
type Event struct {
	// Seq is the tracer-assigned emission sequence number (1-based,
	// monotone, counting dropped events too).
	Seq uint64
	// At is the emission instant: virtual time under the simulator, wall
	// time in the real daemon.
	At time.Time
	// HLC is the hybrid-logical-clock stamp, set when the tracer has an
	// HLCClock armed. Zero under the simulator (one virtual clock already
	// orders everything) and on nodes without forensics enabled.
	HLC HLC
	// Source and Kind type the event.
	Source Source
	Kind   Kind
	// Node tags the emitting protocol instance (daemon id, member id or
	// host name).
	Node string
	// Group is the virtual-address group or ring involved, if any.
	Group string
	// Addr is the IP address involved, if any.
	Addr string
	// Detail carries event-specific context (reasons, peers, counts).
	Detail string
}

// String renders the event on one line.
func (e Event) String() string {
	return fmt.Sprintf("%d %s %s/%s node=%s group=%q addr=%q %s",
		e.Seq, e.At.Format("15:04:05.000000"), e.Source, e.Kind, e.Node, e.Group, e.Addr, e.Detail)
}

// defaultCapacity bounds a tracer's ring. The ring grows only as far as it
// is filled, so the bound costs nothing until it is reached. The trace
// records protocol steps, not token passes or requests: the paper's NIC fault
// under 10 000 rps keeps 147 events, and a traced N = 90 Figure 5 trial, the
// largest, about 17 000 (17 221 at seed 1). Both fit whole.
const defaultCapacity = 1 << 15

// Tracer is a bounded ring buffer of events, safe for concurrent emission
// and snapshotting. A nil *Tracer is a valid, permanently disabled tracer:
// every method is nil-safe and Emit on nil allocates nothing, so call sites
// need no enabled-check for plain literals (only guard work that itself
// allocates, like fmt.Sprintf details, with Enabled).
type Tracer struct {
	mu  sync.Mutex
	now func() time.Time
	hlc *HLCClock
	// buf holds the live events. It grows by appending until it holds max
	// of them, and from then on each Emit overwrites the oldest.
	buf     []Event
	max     int
	start   int // index of the oldest live event; 0 until the ring wraps
	emitted uint64
	// frozen is how many leading slots of buf a Snapshot handed out: they
	// are read-only, so an Emit that would write one clones buf first.
	frozen int
}

// New returns a tracer holding the last capacity events (<=0 means
// defaultCapacity), stamping them with now (nil means time.Now). It
// allocates no ring: the ring grows with what is emitted.
func New(capacity int, now func() time.Time) *Tracer {
	if capacity <= 0 {
		capacity = defaultCapacity
	}
	if now == nil {
		now = time.Now
	}
	return &Tracer{now: now, max: capacity}
}

// SetNow replaces the timestamp source; the simulator harness points it at
// virtual time after the simulation is constructed.
func (t *Tracer) SetNow(now func() time.Time) {
	if t == nil || now == nil {
		return
	}
	t.mu.Lock()
	t.now = now
	t.mu.Unlock()
}

// SetHLC arms hybrid-logical-clock stamping: every subsequently emitted
// event carries c.Now() in its HLC field, making this node's trace mergeable
// into a causally consistent cluster-wide timeline (cmd/wacktrace). Nil
// disables stamping.
func (t *Tracer) SetHLC(c *HLCClock) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.hlc = c
	t.mu.Unlock()
}

// clock returns the armed hybrid-logical-clock, nil when stamping is off.
func (t *Tracer) clock() *HLCClock {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.hlc
}

// Enabled reports whether events are being recorded. Call sites use it to
// skip building event details that would allocate.
func (t *Tracer) Enabled() bool { return t != nil }

// Emit records ev, stamping its Seq and (when unset) its At. On a nil
// tracer it is a zero-allocation no-op.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.emitted++
	ev.Seq = t.emitted
	if ev.At.IsZero() {
		ev.At = t.now()
	}
	if t.hlc != nil && ev.HLC.IsZero() {
		ev.HLC = t.hlc.Now()
	}
	if len(t.buf) < t.max {
		// The ring has not filled, so it never wrapped: the event goes after
		// the newest, in a slot no snapshot holds. An append that moves buf
		// leaves every snapshot behind on the old array.
		if len(t.buf) == cap(t.buf) {
			t.frozen = 0
		}
		t.buf = append(t.buf, ev)
	} else {
		// A full ring overwrites its oldest event. If a snapshot owns that
		// slot, start is 0 (Snapshot rotated the ring to begin there, and
		// only this branch advances start), so cloning keeps every event.
		if t.start < t.frozen {
			t.buf, t.frozen = slices.Clone(t.buf), 0
		}
		t.buf[t.start] = ev
		t.start = (t.start + 1) % t.max
	}
	t.mu.Unlock()
}

// Snapshot returns the buffered events, oldest first. The result is
// read-only: it is the ring itself, rotated in place and handed over, and
// the tracer clones the ring before it next writes a slot the snapshot
// holds, so later Emits leave a returned snapshot unchanged. The array of a
// ring that has not filled has room for at most about twice its events, so a
// snapshot kept long pins little more than it shows.
func (t *Tracer) Snapshot() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.start != 0 {
		// Rotate the wrapped ring left by start: three reversals, no copy.
		slices.Reverse(t.buf[:t.start])
		slices.Reverse(t.buf[t.start:])
		slices.Reverse(t.buf)
		t.start = 0
	}
	n := len(t.buf)
	t.frozen = n
	return t.buf[:n:n]
}

// Len reports how many events are currently buffered.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

// Emitted reports the total number of events ever emitted, including those
// the ring has since overwritten.
func (t *Tracer) Emitted() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.emitted
}

// Dropped reports how many emitted events the ring has overwritten.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.emitted - uint64(len(t.buf))
}
