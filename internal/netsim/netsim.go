// Package netsim simulates the local-area network testbed of the Wackamole
// paper (§6) under deterministic virtual time: Ethernet-like segments with
// MAC addressing and broadcast domains, ARP with per-interface caches and
// TTLs, UDP sockets, an IP forwarding path for routers, network partitions,
// and interface/host fault injection.
//
// The simulation operates at the level the paper's mechanisms need: frames
// are addressed by MAC, IP-to-MAC resolution uses real ARP request/reply
// exchanges (encoded in RFC 826 wire format by package arp), and stale ARP
// cache entries blackhole traffic exactly the way they would on a real
// segment — which is what makes Wackamole's ARP spoofing observable.
package netsim

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"net/netip"
	"time"

	"wackamole/internal/obs"
	"wackamole/internal/sim"
)

// MAC is a 48-bit Ethernet address stored in the low bits of a uint64.
type MAC uint64

// broadcastMAC is the all-ones Ethernet broadcast address.
const broadcastMAC MAC = 0xFFFFFFFFFFFF

// String formats the MAC in colon-separated hex.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x",
		byte(m>>40), byte(m>>32), byte(m>>24), byte(m>>16), byte(m>>8), byte(m))
}

// Bytes returns the 6-byte big-endian representation.
func (m MAC) Bytes() [6]byte {
	return [6]byte{byte(m >> 40), byte(m >> 32), byte(m >> 24), byte(m >> 16), byte(m >> 8), byte(m)}
}

// MACFromBytes builds a MAC from its 6-byte representation.
func MACFromBytes(b [6]byte) MAC {
	return MAC(uint64(b[0])<<40 | uint64(b[1])<<32 | uint64(b[2])<<24 |
		uint64(b[3])<<16 | uint64(b[4])<<8 | uint64(b[5]))
}

// ip4 is an IPv4 address as a big-endian word, the only form in which the
// package holds one: address sets, ARP caches, routes and datagram headers are
// all keyed and compared by it. netip.Addr is the type of the exported API,
// converted once on the way in and once on the way out to a socket handler.
type ip4 uint32

// limitedBroadcast is 255.255.255.255.
const limitedBroadcast ip4 = 0xFFFFFFFF

// toIP4 converts a, reporting false for anything that is not plain IPv4 — the
// zero Addr, IPv6, IPv4-mapped IPv6 — none of which the simulator models.
func toIP4(a netip.Addr) (ip4, bool) {
	if !a.Is4() {
		return 0, false
	}
	b := a.As4()
	return ip4(binary.BigEndian.Uint32(b[:])), true
}

func (a ip4) addr() netip.Addr {
	return netip.AddrFrom4([4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)})
}

type frameKind uint8

const (
	frameARP frameKind = iota + 1
	frameIPv4
)

// frame is an Ethernet-level datagram on a segment.
type frame struct {
	dst  MAC
	kind frameKind
	arp  []byte    // RFC 826 payload when kind == frameARP
	pkt  *ipPacket // when kind == frameIPv4
}

// ipPacket is a simulated IPv4+UDP datagram. Only UDP is modelled; that is
// all the paper's protocols and measurement workload use.
type ipPacket struct {
	src     ip4
	dst     ip4
	ttl     uint8
	srcPort uint16
	dstPort uint16
	payload []byte
	// refs counts the holders of the record and its payload buffer, both of
	// which come from the network's pools. The sender holds one reference
	// for the length of the send. Every scheduled consumer — one deliveryJob
	// per receiving NIC, the sender's localDelivery, a slot in an ARP-pending
	// queue — takes its own and drops it at its terminal point: the socket
	// handler returned, a drop decision, a receiver that vanished in flight,
	// a hop forwarded on (the router keeps the frame's reference across its
	// own egress), a resolution that ended. Whoever drops the last one
	// recycles both, so a datagram nobody will ever hear goes back to the
	// pool the moment its send returns.
	refs int
}

// SegmentConfig holds per-broadcast-domain link characteristics.
type SegmentConfig struct {
	// LatencyMin and LatencyMax bound one-way frame latency; each frame
	// draws uniformly from the interval.
	LatencyMin time.Duration
	LatencyMax time.Duration
	// LossRate is the probability, per receiver, that a frame is dropped.
	LossRate float64
}

// DefaultSegmentConfig models a lightly loaded switched 100 Mbit LAN.
func DefaultSegmentConfig() SegmentConfig {
	return SegmentConfig{
		LatencyMin: 100 * time.Microsecond,
		LatencyMax: 300 * time.Microsecond,
	}
}

// Network is a collection of segments and hosts driven by one simulator.
type Network struct {
	sim      *sim.Sim
	nextMAC  MAC
	tracer   *obs.Tracer
	counters Counters

	// Freelists for the zero-allocation traffic fast path. Each carves new
	// records from slabs of its own, and small payload buffers come from
	// bufSlots, so a burst of frames in flight costs a few allocations per
	// pool rather than one per frame.
	packets  freeList[ipPacket]
	jobs     freeList[deliveryJob]
	locals   freeList[localDelivery]
	freeBufs [][]byte
	bufSlots slab[[bufSlot]byte]
	// poison, flipped only by tests, makes PutBuf overwrite every buffer it
	// is handed, so a handler that retained its payload reads garbage.
	poison bool
}

// firstSlab is the length in records of a pool's first slab. Every later one
// is at least half as long as all before it together, so a pool grows by half
// each time it runs dry: a trial with a few dozen frames in flight leaves a
// short tail unused, and a retransmit burst of thousands costs some fifteen
// allocations per pool.
const firstSlab = 8

// slab hands out zero records of one type, allocating them a slab at a time.
// made counts the records carved so far.
type slab[T any] struct {
	rest []T // the unused rest of the current slab
	made int
}

func (s *slab[T]) carve() *T {
	if len(s.rest) == 0 {
		s.rest = make([]T, max(firstSlab, s.made/2))
	}
	s.made++
	x := &s.rest[0]
	s.rest = s.rest[1:]
	return x
}

// freeList recycles records of one type. The simulation loop is
// single-goroutine, so a plain slice suffices — no locking, no sync.Pool
// churn. With everything released, made == len(free).
type freeList[T any] struct {
	free []*T
	slab[T]
}

// get returns a recycled record, or else one carved from the slab,
// reporting which: a carved record is one its caller has never seen.
func (f *freeList[T]) get() (x *T, carved bool) {
	if l := len(f.free); l > 0 {
		x = f.free[l-1]
		f.free[l-1] = nil
		f.free = f.free[:l-1]
		return x, false
	}
	return f.carve(), true
}

func (f *freeList[T]) put(x *T) { f.free = append(f.free, x) }

// maxPooledBuf caps the payload buffers the network keeps; anything larger
// is left to the garbage collector so a single jumbo payload cannot pin
// memory for the rest of a trial.
const maxPooledBuf = 64 << 10

// bufSlot is the capacity of every payload buffer carved from bufSlots, and
// the size below which a buffer is carved: a slot is an array, so an append
// or a poisoning overwrite never reaches the neighbouring one.
const bufSlot = 128

// GetBuf returns a payload buffer of length n from the network's pool. When
// the pool's top buffer is missing or too small, it stays where it is and
// the buffer is carved from a slab, or for bufSlot bytes or more
// allocated with a power-of-two capacity, so that it serves the next
// payload of about its size too. The buffer's contents are unspecified.
// Callers hand the buffer to SendUDPOwned, which assumes ownership; the
// network returns it to the pool after final delivery.
func (n *Network) GetBuf(size int) []byte {
	if l := len(n.freeBufs); l > 0 && cap(n.freeBufs[l-1]) >= size {
		b := n.freeBufs[l-1]
		n.freeBufs[l-1] = nil
		n.freeBufs = n.freeBufs[:l-1]
		return b[:size]
	}
	if size >= bufSlot {
		return make([]byte, size, 1<<bits.Len(uint(size-1)))
	}
	return n.bufSlots.carve()[:size]
}

// copyBuf returns a pooled copy of b, sized to it.
func (n *Network) copyBuf(b []byte) []byte {
	c := n.GetBuf(len(b))
	copy(c, b)
	return c
}

// PutBuf returns a buffer to the pool. Only buffers no longer referenced
// anywhere else may be returned.
func (n *Network) PutBuf(b []byte) {
	if n.poison {
		b = b[:cap(b)]
		for i := range b {
			b[i] = 0xDB
		}
	}
	if cap(b) == 0 || cap(b) > maxPooledBuf {
		return
	}
	n.freeBufs = append(n.freeBufs, b[:0])
}

// release drops one reference to p; the last one out recycles the record and
// its payload buffer.
func (n *Network) release(p *ipPacket) {
	if p.refs <= 0 {
		panic("netsim: datagram released more often than it was held")
	}
	if p.refs--; p.refs > 0 {
		return
	}
	n.PutBuf(p.payload)
	*p = ipPacket{}
	n.packets.put(p)
}

// SetEventTracer installs a structured event tracer recording ARP spoofs,
// frame drops and injected faults (nil disables). It sees no frame that is
// sent or delivered, only the protocol-relevant occurrences.
func (n *Network) SetEventTracer(t *obs.Tracer) { n.tracer = t }

// Counters aggregates network-wide traffic totals since construction. The
// simulation loop is single-threaded, so plain integers suffice; callers
// snapshot them between RunFor calls.
type Counters struct {
	// FramesSent counts frames entering a segment (one per transmit, not
	// per receiver).
	FramesSent uint64
	// FramesDropped counts explicit per-receiver loss draws.
	FramesDropped uint64
	// ARPSpoofs counts unsolicited ARP replies injected by hosts —
	// gratuitous broadcasts after a take-over and the §5.2 targeted
	// variants alike.
	ARPSpoofs uint64
}

// Counters returns a snapshot of the network's traffic totals.
func (n *Network) Counters() Counters { return n.counters }

// New returns an empty network on s.
func New(s *sim.Sim) *Network {
	return &Network{sim: s, nextMAC: 0x0A0000000001}
}

// Sim returns the simulator driving this network.
func (n *Network) Sim() *sim.Sim { return n.sim }

// NewSegment creates a broadcast domain with the given link characteristics.
func (n *Network) NewSegment(name string, cfg SegmentConfig) *Segment {
	if cfg.LatencyMax < cfg.LatencyMin {
		cfg.LatencyMax = cfg.LatencyMin
	}
	return &Segment{net: n, name: name, cfg: cfg}
}

// Segment is an Ethernet broadcast domain (one switch). Partitioning a
// segment models a switch failure splitting it into isolated port groups, as
// footnote 1 of the paper describes.
type Segment struct {
	net  *Network
	name string
	cfg  SegmentConfig
	nics []*NIC
}

// Partition splits the segment so that only hosts within the same group can
// exchange frames. Every host with a NIC on this segment must appear in
// exactly one group; Partition panics otherwise, because a silently missing
// host would invalidate an experiment.
func (s *Segment) Partition(groups ...[]*Host) {
	assigned := make(map[*NIC]int, len(s.nics))
	for gi, group := range groups {
		for _, h := range group {
			found := false
			for _, nic := range h.nics {
				if nic.seg == s {
					if _, dup := assigned[nic]; dup {
						panic(fmt.Sprintf("netsim: host %s listed in multiple partition groups", h.name))
					}
					assigned[nic] = gi + 1
					found = true
				}
			}
			if !found {
				panic(fmt.Sprintf("netsim: host %s has no NIC on segment %s", h.name, s.name))
			}
		}
	}
	if len(assigned) != len(s.nics) {
		panic(fmt.Sprintf("netsim: partition of %s covers %d of %d NICs", s.name, len(assigned), len(s.nics)))
	}
	for _, nic := range s.nics {
		nic.group = assigned[nic]
	}
}

// Heal removes any partition, restoring full connectivity.
func (s *Segment) Heal() {
	for _, nic := range s.nics {
		nic.group = 0
	}
}

// PartitionGroup returns the partition group nic currently belongs to (0 for
// every NIC when the segment is whole, for one attached after the split, and
// for one that is not on this segment). Two NICs on the segment can exchange
// frames iff their groups are equal; checkers use this to reason about
// reachable network components without re-deriving the partition.
func (s *Segment) PartitionGroup(nic *NIC) int {
	if nic == nil || nic.seg != s {
		return 0
	}
	return nic.group
}

func (s *Segment) latency() time.Duration {
	spread := s.cfg.LatencyMax - s.cfg.LatencyMin
	if spread <= 0 {
		return s.cfg.LatencyMin
	}
	return s.cfg.LatencyMin + time.Duration(s.net.sim.Rand().Int63n(int64(spread)))
}

// transmit schedules delivery of fr from src to all matching reachable NICs.
// Each delivery takes its own reference to the frame's packet; the caller
// holds one across the call and may find itself the only holder afterwards.
func (s *Segment) transmit(src *NIC, fr frame) {
	s.net.counters.FramesSent++
	// Transmit-side impairment: the frame dies at the sending NIC, before
	// any receiver sees it. Gated on the knob so un-impaired runs draw the
	// same RNG sequence as ever.
	if src.txLoss > 0 && s.net.sim.Rand().Float64() < src.txLoss {
		s.drop(src.host.name, "tx-impair")
		return
	}
	for _, nic := range s.nics {
		// The filters draw nothing and change nothing, so their order is free:
		// the address compare goes first because it alone rejects all but one
		// NIC for a unicast frame. Every draw stays behind all of them.
		if fr.dst != broadcastMAC && fr.dst != nic.mac {
			continue
		}
		if nic == src || !nic.up || !nic.host.alive || nic.group != src.group {
			continue
		}
		if s.cfg.LossRate > 0 && s.net.sim.Rand().Float64() < s.cfg.LossRate {
			s.drop(nic.host.name, "")
			continue
		}
		// Receive-side impairment, drawn after the segment's own loss so the
		// base draw order is preserved.
		if nic.rxLoss > 0 && s.net.sim.Rand().Float64() < nic.rxLoss {
			s.drop(nic.host.name, "rx-impair")
			continue
		}
		// One latency draw, then one jitter draw: seeded runs depend on the
		// order.
		delay := s.latency() + nic.host.jitter()
		if d := src.txDelay + nic.rxDelay; d > 0 {
			delay += d
		}
		j, carved := s.net.jobs.get()
		if carved {
			s.net.sim.Init(&j.timer, j)
		}
		j.seg, j.nic, j.fr = s, nic, fr
		if fr.pkt != nil {
			fr.pkt.refs++
		}
		j.timer.Reset(delay)
	}
}

// drop accounts for one explicit loss draw against a frame bound for host.
func (s *Segment) drop(host, detail string) {
	s.net.counters.FramesDropped++
	s.net.tracer.Emit(obs.Event{Source: obs.SourceNet, Kind: obs.KindFrameDrop,
		Node: host, Group: s.name, Detail: detail})
}

// deliveryJob is one frame in flight to one receiver: a pooled record that
// is also its own event, through the timer it embeds, so per-frame
// scheduling allocates neither a closure nor a queue record.
type deliveryJob struct {
	timer sim.Timer // runs the job; initialised once, when the job is carved
	seg   *Segment
	nic   *NIC
	fr    frame
}

// Run delivers the frame. The job recycles itself before touching the host
// so that sends performed inside the receive path can reuse it immediately.
func (j *deliveryJob) Run() {
	seg, nic, fr := j.seg, j.nic, j.fr
	j.seg, j.nic, j.fr = nil, nil, frame{}
	seg.net.jobs.put(j)

	if nic.up && nic.host.alive {
		nic.host.receiveFrame(nic, fr)
	} else if fr.pkt != nil {
		// The receiver vanished between transmit and delivery, so no
		// consumption point will see the packet.
		seg.net.release(fr.pkt)
	}
}
