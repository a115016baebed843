package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"
)

// phase.go reconstructs the paper's §5 decomposition of an availability
// interruption from a trial's event stream. The client observes one opaque
// gap [gapStart, gapEnd]; the trace marks the protocol instants inside it:
//
//	fault ──▶ gather-enter ──▶ install ──▶ acquire ──▶ first answered probe
//	         (detection)   (membership)  (state sync)   (ARP take-over)
//
// The four phases partition the gap exactly, so they always sum to the
// reported interruption.

// Breakdown is the per-phase decomposition of one availability
// interruption.
type Breakdown struct {
	// Detection: probe gap start until the surviving ring suspects the
	// fault (first gather-enter at or after the fault injection).
	Detection time.Duration
	// Membership: suspicion until the acquiring daemon installs the new
	// membership.
	Membership time.Duration
	// StateSync: membership install until the acquiring engine finishes
	// the STATE_MSG exchange and acquires the orphaned address.
	StateSync time.Duration
	// ARPTakeover: address acquisition until clients observe service again
	// (gratuitous ARP propagation and cache correction, §5.1).
	ARPTakeover time.Duration
}

// Total sums the phases; by construction it equals the measured gap.
func (b Breakdown) Total() time.Duration {
	return b.Detection + b.Membership + b.StateSync + b.ARPTakeover
}

// PhaseNames order the Breakdown components as the paper's §5 presents them;
// Phases returns the durations in the same order.
var PhaseNames = []string{"detection", "membership", "state-sync", "arp-takeover"}

// Phases lists the components in PhaseNames order.
func (b Breakdown) Phases() []time.Duration {
	return []time.Duration{b.Detection, b.Membership, b.StateSync, b.ARPTakeover}
}

// breakdownJSON is the wire shape of a Breakdown: phases in seconds,
// matching the *_s convention of the experiment layer's JSON rows.
type breakdownJSON struct {
	Detection   float64 `json:"detection_s"`
	Membership  float64 `json:"membership_s"`
	StateSync   float64 `json:"state_sync_s"`
	ARPTakeover float64 `json:"arp_takeover_s"`
}

// MarshalJSON emits the phases in seconds.
func (b Breakdown) MarshalJSON() ([]byte, error) {
	return json.Marshal(breakdownJSON{
		b.Detection.Seconds(), b.Membership.Seconds(), b.StateSync.Seconds(), b.ARPTakeover.Seconds()})
}

// UnmarshalJSON parses the wire shape back (used by offline analyzers
// reading trace streams).
func (b *Breakdown) UnmarshalJSON(data []byte) error {
	var w breakdownJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	*b = Breakdown{sec(w.Detection), sec(w.Membership), sec(w.StateSync), sec(w.ARPTakeover)}
	return nil
}

// daemonOf extracts the daemon id from a core-layer node tag. Core engines
// are tagged with their group-member id "daemon/client" (gcs.GroupMember),
// while gcs events are tagged with the bare daemon id.
func daemonOf(node string) string {
	if i := strings.IndexByte(node, '/'); i >= 0 {
		return node[:i]
	}
	return node
}

// FailoverBreakdown partitions the measured probe gap [gapStart, gapEnd]
// over target into the four fail-over phases. Phase boundaries are taken
// from the event stream and clamped monotonically into the gap, so the
// phases always partition it exactly; a boundary whose marker event is
// missing (e.g. the ring overwrote it) collapses that phase to zero rather
// than failing.
func FailoverBreakdown(events []Event, gapStart, gapEnd time.Time, target string) Breakdown {
	return ExplainFailover(events, gapStart, gapEnd, target).Phases
}

// Explanation is what FailoverBreakdown's anchor search finds in one gap.
type Explanation struct {
	Phases Breakdown `json:"phases"`
	// Detector and Acquirer name the nodes whose gather-enter and acquire
	// of the target anchor the phases, each only if it lies inside the gap.
	Detector string `json:"detector,omitempty"`
	Acquirer string `json:"acquirer,omitempty"`
	// Explained: the gather-enter, the acquirer's membership install and
	// the target's acquire all lie inside the gap. An unexplained gap still
	// partitions (missing boundaries collapse their phases to zero).
	Explained bool `json:"explained"`
}

// ExplainFailover is FailoverBreakdown with the anchors it found.
func ExplainFailover(events []Event, gapStart, gapEnd time.Time, target string) Explanation {
	// The injected fault anchors the search: markers before it belong to
	// warm-up noise, not this fail-over.
	var faultAt time.Time
	for _, e := range events {
		if e.Kind == KindFault && !e.At.After(gapEnd) {
			faultAt = e.At
		}
	}
	if faultAt.IsZero() {
		faultAt = gapStart
	}

	// Suspicion: the first daemon to abandon the old ring after the fault.
	var suspectAt time.Time
	var detector string
	for _, e := range events {
		if e.Kind == KindGatherEnter && !e.At.Before(faultAt) {
			suspectAt, detector = e.At, e.Node
			break
		}
	}

	// Recovery: the first acquisition of the orphaned address after the
	// fault, and the membership install (by the acquiring daemon) that
	// enabled it.
	var acquireAt time.Time
	var acquirer string
	for _, e := range events {
		if e.Kind == KindAcquire && e.Addr == target && !e.At.Before(faultAt) {
			acquireAt, acquirer = e.At, e.Node
			break
		}
	}
	var installAt time.Time
	acquirerDaemon := daemonOf(acquirer)
	for _, e := range events {
		if e.Kind == KindInstall && daemonOf(e.Node) == acquirerDaemon &&
			!e.At.Before(faultAt) && (acquireAt.IsZero() || !e.At.After(acquireAt)) {
			installAt = e.At
		}
	}

	// Clamp the three interior boundaries into [gapStart, gapEnd] and force
	// them monotone; a missing marker inherits the previous boundary,
	// zeroing its phase.
	clamp := func(t, lo time.Time) time.Time {
		if t.Before(lo) {
			return lo
		}
		if t.After(gapEnd) {
			return gapEnd
		}
		return t
	}
	t1 := clamp(suspectAt, gapStart)
	t2 := clamp(installAt, t1)
	t3 := clamp(acquireAt, t2)
	x := Explanation{Phases: Breakdown{
		Detection:   t1.Sub(gapStart),
		Membership:  t2.Sub(t1),
		StateSync:   t3.Sub(t2),
		ARPTakeover: gapEnd.Sub(t3),
	}}
	inGap := func(t time.Time) bool { return !t.IsZero() && !t.Before(gapStart) && !t.After(gapEnd) }
	if inGap(suspectAt) {
		x.Detector = detector
	}
	if inGap(acquireAt) {
		x.Acquirer = acquirer
	}
	x.Explained = inGap(suspectAt) && inGap(installAt) && inGap(acquireAt)
	return x
}

// OwnershipSpan is one interval during which Owner covered an address. A
// zero To means the span was still open at the end of the trace.
type OwnershipSpan struct {
	Owner    string
	From, To time.Time
}

// OwnershipTimeline folds acquire/release events into per-address ownership
// histories, keyed by IP address, spans in chronological order. Overlapping
// spans reproduce the transient multiple-ownership window the protocol
// permits during partition merges (§3.3).
func OwnershipTimeline(events []Event) map[string][]OwnershipSpan {
	type openKey struct{ addr, owner string }
	open := map[openKey]int{} // index into out[addr]
	out := map[string][]OwnershipSpan{}
	for _, e := range events {
		switch e.Kind {
		case KindAcquire:
			k := openKey{e.Addr, e.Node}
			if _, dup := open[k]; dup {
				continue // re-announce of an address already held
			}
			open[k] = len(out[e.Addr])
			out[e.Addr] = append(out[e.Addr], OwnershipSpan{Owner: e.Node, From: e.At})
		case KindRelease:
			k := openKey{e.Addr, e.Node}
			if i, ok := open[k]; ok {
				out[e.Addr][i].To = e.At
				delete(open, k)
			}
		}
	}
	for addr := range out {
		spans := out[addr]
		sort.SliceStable(spans, func(i, j int) bool { return spans[i].From.Before(spans[j].From) })
	}
	return out
}

// RenderOwnershipTimeline prints each address's ownership spans, addresses
// sorted, times relative to the first event ("" for no events).
func RenderOwnershipTimeline(events []Event) string {
	if len(events) == 0 {
		return ""
	}
	t0 := events[0].At
	tl := OwnershipTimeline(events)
	addrs := make([]string, 0, len(tl))
	for a := range tl {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	var b strings.Builder
	for _, a := range addrs {
		fmt.Fprintf(&b, "  %s\n", a)
		for _, span := range tl[a] {
			end := "…"
			if !span.To.IsZero() {
				end = fmt.Sprintf("+%.3fs", span.To.Sub(t0).Seconds())
			}
			fmt.Fprintf(&b, "    %-28s +%.3fs → %s\n", span.Owner, span.From.Sub(t0).Seconds(), end)
		}
	}
	return b.String()
}

// TrialTrace bundles one simulated trial's captured events with its
// fail-over phase breakdown; the experiment runner attaches it to the
// trial's Sample when tracing is requested.
type TrialTrace struct {
	Events []Event
	// Dropped counts the trial's events the ring evicted before Events was
	// taken: Events holds the newest len(Events) of len(Events)+Dropped.
	Dropped uint64
	Phases  Breakdown
	// GapStart and GapEnd bound the measured interruption and Target names
	// the probed address; offline analyzers (cmd/wacktrace) explain the
	// fail-over again from these and Events.
	GapStart, GapEnd time.Time
	Target           string
}
