package netsim

import (
	"fmt"
	"net/netip"
	"time"
)

// TraceKind classifies packet-trace events.
type TraceKind uint8

// Trace event kinds.
const (
	// TraceSend: a frame entered a segment.
	TraceSend TraceKind = iota + 1
	// TraceDeliver: a frame reached a NIC.
	TraceDeliver
	// TraceDrop: a frame was lost (segment loss or unreachable receiver is
	// not traced — only explicit loss draws).
	TraceDrop
	// TraceForward: a router forwarded an IP packet.
	TraceForward
)

// String names the kind.
func (k TraceKind) String() string {
	switch k {
	case TraceSend:
		return "send"
	case TraceDeliver:
		return "deliver"
	case TraceDrop:
		return "drop"
	case TraceForward:
		return "forward"
	default:
		return fmt.Sprintf("trace(%d)", uint8(k))
	}
}

// TraceEvent describes one packet-level event, for protocol debugging and
// for assertions on traffic shape in tests.
type TraceEvent struct {
	At      time.Time
	Kind    TraceKind
	Segment string
	Host    string // receiving or forwarding host ("" for sends)
	Src     MAC
	Dst     MAC
	// IP layer, when the frame carries an IP packet.
	SrcIP, DstIP netip.Addr
	ARP          bool
}

// String renders the event on one line.
func (e TraceEvent) String() string {
	layer := "ip"
	if e.ARP {
		layer = "arp"
	}
	return fmt.Sprintf("%-8s %-8s %s %s->%s %v->%v host=%s",
		e.Kind, e.Segment, layer, e.Src, e.Dst, e.SrcIP, e.DstIP, e.Host)
}

// SetPacketTrace installs a packet-trace hook (nil disables). The hook runs
// synchronously inside the simulation loop; keep it cheap.
func (n *Network) SetPacketTrace(hook func(TraceEvent)) { n.trace = hook }

func (n *Network) emitTrace(ev TraceEvent) {
	ev.At = n.sim.Now()
	n.trace(ev)
}

// trace reports one frame event to the packet-trace hook. The guard comes
// first: the event is built for every send, delivery and drop, so with no
// hook installed (every run but two tests) none of it may be paid for.
func (s *Segment) trace(fr *frame, kind TraceKind, host string) {
	if s.net.trace == nil {
		return
	}
	ev := TraceEvent{
		Kind:    kind,
		Segment: s.name,
		Host:    host,
		Src:     fr.src,
		Dst:     fr.dst,
		ARP:     fr.kind == frameARP,
	}
	if fr.pkt != nil {
		ev.SrcIP = fr.pkt.src.addr()
		ev.DstIP = fr.pkt.dst.addr()
	}
	s.net.emitTrace(ev)
}
