// Package check is a deterministic-simulation model checker for the
// Wackamole protocol stack, in the style FoundationDB made famous: a seeded
// generator produces randomized fault programs (schedules), a driver runs
// them against a real simulated cluster over virtual time while online
// oracles watch every membership installation, Agreed delivery and address
// acquisition, and any violation is delta-debugged down to a minimal failing
// schedule and written out as a replayable artifact.
//
// The oracles encode the paper's two correctness properties plus the
// virtual-synchrony guarantees the protocol relies on:
//
//	exactly-once    Property 1 — within each reachable network component,
//	                every virtual address has exactly one holder after the
//	                settle bound.
//	convergence     Property 2 — every component's in-service members agree
//	                on one view and one allocation table within a bound
//	                computed from the gcs timeouts, and membership stops
//	                changing afterwards.
//	view-order      Virtual Synchrony safety — all engines install
//	                identical views (same ID ⇒ same member list) in
//	                mutually consistent order.
//	delivery-order  Agreed delivery — per-ring sequence numbers are
//	                delivered in increasing order and no two daemons
//	                disagree on the origin of any (ring, seq).
//	foreign-claim   No node's interface holds a virtual address its engine
//	                does not own, and no engine acquires outside a view
//	                containing itself.
//	ping-pong       Gray-failure liveness — no VIP group's ownership
//	                oscillates faster than the fault program justifies
//	                (armed when the schedule carries fault shapes).
//	false-suspect   Gray-failure accuracy — nodes may not declare live,
//	                reachable peers failed more often than the injected
//	                impairments can explain.
//
// Schedules speak the repository's one fault vocabulary, which one Executor
// applies, for Run and for the availability experiment's presets (Preset,
// wacksim -fault) alike:
//
//	fail, restore     take every interface of a server down, bring them up
//	crash             halt a server's host
//	partition, heal   split the LAN in two (Event.Mask), make it whole
//	sever             kill a server's daemon session; it reconnects
//	leave, join       drain a server out of service, re-admit it
//	jitter            delay a server's processing for a 2 s window
//	shape, clear      start, stop an internal/faults program on its interface
package check

import (
	"encoding/json"
	"fmt"
	"time"
)

// Op is one fault-program operation.
type Op uint8

// Schedule operations: the paper's testbed faults (§6), the §4.2 session
// faults and the gray shapes of internal/faults. Generate draws the first
// nine; opCrash and opJoin come from hand-written schedules and presets.
const (
	// opFail takes server A's interfaces down (the paper's fault injection;
	// a cluster server has one).
	opFail Op = iota + 1
	// opRestore brings server A's interfaces back up.
	opRestore
	// opPartition splits the LAN: servers with bit i set in Mask form one
	// side, the rest the other. Replaces any partition already in effect.
	opPartition
	// opHeal removes any partition.
	opHeal
	// opSever abruptly kills server A's daemon session (§4.2); the node
	// reconnects automatically after its reconnect interval.
	opSever
	// opLeave drains server A: its engine releases its addresses and leaves
	// service, its daemon keeps running, until an opJoin re-admits it.
	opLeave
	// opJitter opens a bounded window of scheduling delay on server A's
	// host, modelling the clock skew that makes probe/heartbeat timeouts
	// fire spuriously. The window closes by itself after jitterWindow (2s).
	opJitter
	// opShape applies an internal/faults gray-failure program (Event.Shape,
	// spec syntax) to server A's interface: flapping links, lossy-but-alive
	// links, CPU-starved daemons. Replaces any program already on A.
	opShape
	// opClear stops the fault program on server A, restoring the clean
	// interface.
	opClear
	// opCrash halts server A's host for good, daemon and engine with it.
	opCrash
	// opJoin re-admits server A after an opLeave: its engine restarts the
	// §3.4 maturity bootstrap and a fresh session joins the group.
	opJoin
)

var opNames = map[Op]string{
	opFail:      "fail",
	opRestore:   "restore",
	opPartition: "partition",
	opHeal:      "heal",
	opSever:     "sever",
	opLeave:     "leave",
	opJitter:    "jitter",
	opShape:     "shape",
	opClear:     "clear",
	opCrash:     "crash",
	opJoin:      "join",
}

var opValues = func() map[string]Op {
	m := make(map[string]Op, len(opNames))
	for op, s := range opNames {
		m[s] = op
	}
	return m
}()

// String returns the operation's wire name.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Event is one timed operation of a fault program. At is the virtual-time
// offset from the start of the schedule (the cluster is formed and settled
// before the first event fires).
type Event struct {
	At     time.Duration
	Op     Op
	Server int    // target of every op but Partition and Heal
	Mask   uint64 // Partition: servers on side A
	Shape  string // Shape: fault program in internal/faults spec syntax
}

func (e Event) String() string {
	switch e.Op {
	case opPartition:
		return fmt.Sprintf("@%v %s mask=%#x", e.At, e.Op, e.Mask)
	case opHeal:
		return fmt.Sprintf("@%v %s", e.At, e.Op)
	case opShape:
		return fmt.Sprintf("@%v %s server=%d %s", e.At, e.Op, e.Server, e.Shape)
	default:
		return fmt.Sprintf("@%v %s server=%d", e.At, e.Op, e.Server)
	}
}

// MaxServers is the most servers a schedule can hold: one bit each in
// Event.Mask.
const MaxServers = 64

// Schedule is a complete fault program: the simulation seed, the cluster
// shape, and a time-ordered event list. Together with Options it determines
// a run byte-for-byte.
type Schedule struct {
	Seed    int64
	Servers int
	VIPs    int
	Events  []Event
}

// eventJSON is the wire shape of an Event; offsets travel as integer
// nanoseconds because replay demands exact times (the generator emits
// millisecond-round offsets, so artifacts stay readable in practice).
type eventJSON struct {
	AtNS   int64  `json:"at_ns"`
	Op     string `json:"op"`
	Server int    `json:"server,omitempty"`
	Mask   uint64 `json:"mask,omitempty"`
	Shape  string `json:"shape,omitempty"`
}

type scheduleJSON struct {
	Seed    int64       `json:"seed"`
	Servers int         `json:"servers"`
	VIPs    int         `json:"vips"`
	Events  []eventJSON `json:"events"`
}

// MarshalJSON implements json.Marshaler.
func (s Schedule) MarshalJSON() ([]byte, error) {
	out := scheduleJSON{Seed: s.Seed, Servers: s.Servers, VIPs: s.VIPs,
		Events: make([]eventJSON, 0, len(s.Events))}
	for _, e := range s.Events {
		out.Events = append(out.Events, eventJSON{
			AtNS: e.At.Nanoseconds(), Op: e.Op.String(), Server: e.Server, Mask: e.Mask,
			Shape: e.Shape,
		})
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler.
func (s *Schedule) UnmarshalJSON(b []byte) error {
	var in scheduleJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	out := Schedule{Seed: in.Seed, Servers: in.Servers, VIPs: in.VIPs}
	for _, e := range in.Events {
		op, ok := opValues[e.Op]
		if !ok {
			return fmt.Errorf("check: unknown op %q", e.Op)
		}
		out.Events = append(out.Events, Event{
			At: time.Duration(e.AtNS), Op: op, Server: e.Server, Mask: e.Mask,
			Shape: e.Shape,
		})
	}
	*s = out
	return nil
}

// withEvents returns a copy of s holding exactly events (shared backing is
// never mutated, so aliasing is fine).
func (s Schedule) withEvents(events []Event) Schedule {
	s.Events = events
	return s
}
