// Streaming telemetry: each daemon periodically encodes a compact,
// HLC-stamped health frame — its suspicion vector, membership view, owned
// VIP set, and key protocol counters — and unicasts it to configured
// subscribers over the same env.PacketConn abstraction the protocol uses,
// so it works identically under netsim and real UDP. Frames are fire-and-
// forget datagrams: losing one only delays the dashboard by an interval.
package health

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"wackamole/internal/env"
	"wackamole/internal/metrics"
	"wackamole/internal/obs"
	"wackamole/internal/wire"
)

// Frame wire format constants. The magic deliberately differs from the gcs
// header ('W','G') so a frame mis-delivered to a daemon port is logged and
// dropped as an unknown packet rather than parsed.
const (
	frameMagic0  = 'W'
	frameMagic1  = 'H'
	frameVersion = 1

	// maxFrameList bounds every list in a frame (members, owned groups,
	// peers); a decoder rejects larger counts before allocating.
	maxFrameList = 1024

	// defaultTelemetryInterval is the publishing period when the
	// configuration leaves telemetry_interval unset.
	defaultTelemetryInterval = 250 * time.Millisecond
)

// PeerStatus is one entry of a frame's suspicion vector: the publishing
// node's current shadow-detector view of one peer.
type PeerStatus struct {
	// Peer is the observed daemon's identity.
	Peer string `json:"peer"`
	// PhiMilli is the phi suspicion level in fixed-point milli-phi.
	PhiMilli uint32 `json:"phi_milli"`
	// LastHeardNS is the age of the peer's most recent signal when the
	// frame was built, in nanoseconds.
	LastHeardNS uint64 `json:"last_heard_ns"`
	// Samples is the inter-arrival window population.
	Samples uint32 `json:"samples"`
	// Suspected reports an uncleared phi threshold crossing.
	Suspected bool `json:"suspected"`
}

// Frame is one telemetry datagram: a self-contained snapshot of how one
// daemon sees the cluster. Fields marshal to JSON for NDJSON frame logs.
type Frame struct {
	// Node is the publishing daemon's identity.
	Node string `json:"node"`
	// Seq increments per published frame; gaps reveal datagram loss.
	Seq uint64 `json:"seq"`
	// HLC is the publisher's hybrid logical clock at build time; it totally
	// orders frames across nodes the same way trace events are ordered.
	HLC obs.HLC `json:"hlc"`
	// SkewNS is the largest wall-clock skew the publisher's HLC has
	// absorbed from any peer, in nanoseconds.
	SkewNS int64 `json:"skew_ns"`
	// View is the installed membership view identity.
	View string `json:"view"`
	// State is the daemon's protocol state (gather/run/...).
	State string `json:"state"`
	// Mature reports §3.4 maturity.
	Mature bool `json:"mature"`
	// Generation is the health monitor's membership generation.
	Generation uint64 `json:"generation"`
	// Members lists the installed view's members.
	Members []string `json:"members,omitempty"`
	// Owned lists the VIP groups this node currently claims.
	Owned []string `json:"owned,omitempty"`
	// Peers is the suspicion vector, sorted by peer name.
	Peers []PeerStatus `json:"peers,omitempty"`
	// Installs, Reconfigs and Delivered are the daemon's cumulative
	// counters; subscribers difference consecutive frames for rates.
	Installs  uint64 `json:"installs"`
	Reconfigs uint64 `json:"reconfigs"`
	Delivered uint64 `json:"delivered"`
	// FramesPublished and FramesDropped count this publisher's own sends,
	// so the dashboard can report telemetry-channel loss.
	FramesPublished uint64 `json:"frames_published"`
	FramesDropped   uint64 `json:"frames_dropped"`
}

// AppendFrame encodes f to the telemetry wire format, appending to dst and
// returning the extended slice. With a reused dst of sufficient capacity it
// performs no allocation. Strings longer than 64KB and lists longer than
// maxFrameList are truncated (never produced by real publishers).
func AppendFrame(dst []byte, f *Frame) []byte {
	dst = append(dst, frameMagic0, frameMagic1, frameVersion)
	dst = appendString(dst, f.Node)
	dst = binary.BigEndian.AppendUint64(dst, f.Seq)
	dst = binary.BigEndian.AppendUint64(dst, uint64(f.HLC.Wall))
	dst = binary.BigEndian.AppendUint32(dst, f.HLC.Logical)
	dst = binary.BigEndian.AppendUint64(dst, uint64(f.SkewNS))
	dst = appendString(dst, f.View)
	dst = appendString(dst, f.State)
	dst = appendBool(dst, f.Mature)
	dst = binary.BigEndian.AppendUint64(dst, f.Generation)
	dst = appendStringList(dst, f.Members)
	dst = appendStringList(dst, f.Owned)
	peers := f.Peers
	if len(peers) > maxFrameList {
		peers = peers[:maxFrameList]
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(peers)))
	for i := range peers {
		p := &peers[i]
		dst = appendString(dst, p.Peer)
		dst = binary.BigEndian.AppendUint32(dst, p.PhiMilli)
		dst = binary.BigEndian.AppendUint64(dst, p.LastHeardNS)
		dst = binary.BigEndian.AppendUint32(dst, p.Samples)
		dst = appendBool(dst, p.Suspected)
	}
	dst = binary.BigEndian.AppendUint64(dst, f.Installs)
	dst = binary.BigEndian.AppendUint64(dst, f.Reconfigs)
	dst = binary.BigEndian.AppendUint64(dst, f.Delivered)
	dst = binary.BigEndian.AppendUint64(dst, f.FramesPublished)
	dst = binary.BigEndian.AppendUint64(dst, f.FramesDropped)
	return dst
}

func appendString(dst []byte, s string) []byte {
	if len(s) > 0xffff {
		s = s[:0xffff]
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendStringList(dst []byte, ss []string) []byte {
	if len(ss) > maxFrameList {
		ss = ss[:maxFrameList]
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(ss)))
	for _, s := range ss {
		dst = appendString(dst, s)
	}
	return dst
}

// isFrame reports whether data starts with the telemetry frame magic.
func isFrame(data []byte) bool {
	return len(data) >= 2 && data[0] == frameMagic0 && data[1] == frameMagic1
}

var errNotFrame = errors.New("health: not a telemetry frame")

// DecodeFrame parses one telemetry datagram. All strings are copied out of
// data; hostile length fields fail before any large allocation.
func DecodeFrame(data []byte) (Frame, error) {
	var f Frame
	if len(data) < 3 || !isFrame(data) {
		return f, errNotFrame
	}
	if data[2] != frameVersion {
		return f, fmt.Errorf("health: unsupported frame version %d", data[2])
	}
	r := wire.NewReader(data[3:])
	f.Node = r.String()
	f.Seq = r.U64()
	f.HLC.Wall = int64(r.U64())
	f.HLC.Logical = r.U32()
	f.SkewNS = int64(r.U64())
	f.View = r.String()
	f.State = r.String()
	f.Mature = r.Bool()
	f.Generation = r.U64()
	var err error
	if f.Members, err = readStringList(r); err != nil {
		return f, err
	}
	if f.Owned, err = readStringList(r); err != nil {
		return f, err
	}
	n := int(r.U16())
	if n > maxFrameList {
		return f, fmt.Errorf("health: frame peer count %d exceeds limit", n)
	}
	if n > 0 && r.Err() == nil {
		f.Peers = make([]PeerStatus, 0, n)
		for i := 0; i < n; i++ {
			var p PeerStatus
			p.Peer = r.String()
			p.PhiMilli = r.U32()
			p.LastHeardNS = r.U64()
			p.Samples = r.U32()
			p.Suspected = r.Bool()
			if r.Err() != nil {
				break
			}
			f.Peers = append(f.Peers, p)
		}
	}
	f.Installs = r.U64()
	f.Reconfigs = r.U64()
	f.Delivered = r.U64()
	f.FramesPublished = r.U64()
	f.FramesDropped = r.U64()
	if err := r.Done(); err != nil {
		return Frame{}, err
	}
	return f, nil
}

func readStringList(r *wire.Reader) ([]string, error) {
	n := int(r.U16())
	if n > maxFrameList {
		return nil, fmt.Errorf("health: frame list count %d exceeds limit", n)
	}
	if n == 0 || r.Err() != nil {
		return nil, nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		s := r.String()
		if r.Err() != nil {
			break
		}
		out = append(out, s)
	}
	return out, nil
}

// PublisherOptions configures a Publisher.
type PublisherOptions struct {
	// Node is the publishing daemon's identity, stamped on every frame.
	Node string
	// Interval is the publishing period (default
	// defaultTelemetryInterval).
	Interval time.Duration
	// Subscribers are the destination addresses, one datagram each per
	// interval.
	Subscribers []string
	// Clock schedules the publishing timer; its callbacks run on the
	// node's serialized loop, so Frame needs no locking of its own.
	Clock env.Clock
	// Send transmits one encoded frame (typically env.PacketConn.SendTo).
	Send func(to string, payload []byte) error
	// Frame builds the next frame to publish. The publisher fills in Node,
	// Seq, FramesPublished and FramesDropped.
	Frame func(now time.Time) Frame
	// Metrics receives health_frames_published_total /
	// health_frames_dropped_total; nil disables export.
	Metrics *metrics.Registry
}

// Publisher periodically emits telemetry frames. A nil Publisher is a valid
// disabled instrument. All mutation happens on the env clock's serialized
// callback loop; the counters are atomic so status queries from other
// goroutines can read them.
type Publisher struct {
	o       PublisherOptions
	buf     []byte
	seq     uint64
	timer   env.Timer
	stopped bool

	pubN, dropN atomic.Uint64
	cPub, cDrop *metrics.Counter
}

// NewPublisher returns a publisher, or nil when opts names no subscribers —
// callers can wire the result unconditionally.
func NewPublisher(opts PublisherOptions) *Publisher {
	if len(opts.Subscribers) == 0 || opts.Clock == nil || opts.Send == nil || opts.Frame == nil {
		return nil
	}
	if opts.Interval <= 0 {
		opts.Interval = defaultTelemetryInterval
	}
	p := &Publisher{o: opts}
	p.cPub = opts.Metrics.Counter("health_frames_published_total",
		"telemetry frames sent to subscribers",
		metrics.L("node", opts.Node))
	p.cDrop = opts.Metrics.Counter("health_frames_dropped_total",
		"telemetry frame sends that failed",
		metrics.L("node", opts.Node))
	return p
}

// Start arms the publishing timer. Call from the node's loop.
func (p *Publisher) Start() {
	if p == nil || p.timer != nil || p.stopped {
		return
	}
	p.timer = p.o.Clock.NewTimer(p.tick)
	p.timer.Reset(p.o.Interval)
}

// Stop cancels publishing; no frames are sent after it returns (on the
// loop).
func (p *Publisher) Stop() {
	if p == nil {
		return
	}
	p.stopped = true
	if p.timer != nil {
		p.timer.Stop()
		p.timer = nil
	}
}

// Published and Dropped report cumulative send outcomes; safe from any
// goroutine.
func (p *Publisher) Published() uint64 {
	if p == nil {
		return 0
	}
	return p.pubN.Load()
}

// Dropped reports cumulative failed sends; safe from any goroutine.
func (p *Publisher) Dropped() uint64 {
	if p == nil {
		return 0
	}
	return p.dropN.Load()
}

func (p *Publisher) tick() {
	if p.stopped {
		return
	}
	now := p.o.Clock.Now()
	f := p.o.Frame(now)
	f.Node = p.o.Node
	p.seq++
	f.Seq = p.seq
	f.FramesPublished = p.pubN.Load()
	f.FramesDropped = p.dropN.Load()
	p.buf = AppendFrame(p.buf[:0], &f)
	for _, sub := range p.o.Subscribers {
		if err := p.o.Send(sub, p.buf); err != nil {
			p.dropN.Add(1)
			p.cDrop.Inc()
		} else {
			p.pubN.Add(1)
			p.cPub.Inc()
		}
	}
	p.timer.Reset(p.o.Interval)
}
